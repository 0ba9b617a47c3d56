package pathcover

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"pathcover/internal/core"
	"pathcover/internal/covercache"
	"pathcover/internal/pram"
)

// Pool errors.
var (
	// ErrPoolClosed is returned by every Pool method after Close.
	ErrPoolClosed = errors.New("pathcover: pool is closed")
	// ErrPoolSaturated is returned when the admission queue is full; the
	// caller should shed load or retry later.
	ErrPoolSaturated = errors.New("pathcover: pool admission queue is full")
	// ErrSolverPanic is the sentinel wrapped by the *PanicError a Pool
	// call returns when the solve panicked; the panicking shard's Solver
	// was rebuilt, so the pool keeps serving.
	ErrSolverPanic = errors.New("pathcover: solver panicked")
)

// PanicError carries the recovered panic value of a solve that blew up
// on a shard. It unwraps to ErrSolverPanic, so errors.Is works; only
// the request that panicked fails — the shard's Solver is replaced
// before the slot is released and the pool stays healthy (see
// PoolStats.Restarts).
type PanicError struct {
	Value any // the recovered value
}

// Error describes the recovered panic value.
func (e *PanicError) Error() string {
	return fmt.Sprintf("pathcover: solver panicked: %v", e.Value)
}

// Unwrap makes every PanicError match errors.Is(err, ErrSolverPanic).
func (e *PanicError) Unwrap() error { return ErrSolverPanic }

// Pool is a sharded, load-aware solver fleet: a fixed set of
// independent Solvers (one per CPU by default, each with a pinned
// worker budget sized so the shards together never oversubscribe the
// host), a least-loaded dispatcher, bounded admission, and per-shard
// statistics. It is the serving layer of this package — one Pool per
// process serves concurrent path-cover queries from any number of
// goroutines, amortising every solver's worker pool, scratch arena and
// Euler-tour cache across the query stream.
//
// Unlike Solver, every Pool method is safe for concurrent use and
// returns results the caller owns (copied out of the shard's arena
// before the shard is released). Covers are computed by the paper's
// parallel algorithm under the simulated cost model, exactly as
// Solver.MinimumPathCover would.
type Pool struct {
	shards []*poolShard
	depth  int // admitted-call bound; 0 = unbounded

	// cache, when non-nil (WithCache), is the shard-shared result cache
	// keyed on canonical graph identity; baseCfg is the shards' common
	// base configuration, from which per-call cache keys derive.
	cache   *covercache.Cache
	baseCfg config

	inflight atomic.Int64
	closed   atomic.Bool
	closeOne sync.Once

	batches  atomic.Int64
	rejected atomic.Int64
	canceled atomic.Int64
}

// poolShard is one solver plus its exclusive execution slot. The slot
// channel (capacity 1) is the shard's lock; a channel rather than a
// mutex so that waiters can abandon the wait on context cancellation.
type poolShard struct {
	id      int
	slot    chan struct{}
	sv      *Solver      // owned by the slot holder; rebuilt after a panic
	opts    []Option     // construction options, replayed on rebuild
	workers int          // worker budget, fixed at construction
	load    atomic.Int64 // outstanding vertices (queued + executing)

	// statsMu guards the shard's serving record as one unit, so Stats
	// snapshots a consistent row: a reader can never observe a call's
	// vertices without its sim counters, or a rebuilt Solver without its
	// restart tick.
	statsMu  sync.Mutex
	calls    int64
	vertices int64
	simTime  int64
	simWork  int64
	restarts int64 // Solvers replaced after a panic
	arena    int64 // Solver arena bytes, snapshotted after each call
}

// record commits one served call to the shard's stats row. Called with
// the shard's slot held, so reading sv here cannot race a restart
// swap.
func (sh *poolShard) record(n int, st Stats) {
	arena := sh.sv.ArenaBytes()
	sh.statsMu.Lock()
	sh.calls++
	sh.vertices += int64(n)
	sh.simTime += st.Time
	sh.simWork += st.Work
	sh.arena = arena
	sh.statsMu.Unlock()
}

type poolConfig struct {
	shards     int
	queue      int   // 0 = default, negative = unbounded
	cacheBytes int64 // 0 = uncached
	affinity   bool
	solverOpts []Option
}

// PoolOption configures NewPool.
type PoolOption func(*poolConfig)

// WithShards fixes the shard count. The default is GOMAXPROCS shards
// of one worker each (pram.DefaultShards); k shards get GOMAXPROCS/k
// workers each (at least one), so fewer, wider shards trade concurrent
// queries for intra-query parallelism on large graphs.
func WithShards(n int) PoolOption {
	return func(c *poolConfig) {
		if n > 0 {
			c.shards = n
		}
	}
}

// WithQueueDepth bounds how many calls may be inside the Pool at once
// (waiting plus executing); calls beyond the bound fail fast with
// ErrPoolSaturated. The default is 8 calls per shard. A negative depth
// removes the bound.
func WithQueueDepth(d int) PoolOption {
	return func(c *poolConfig) { c.queue = d }
}

// WithShardOptions passes Solver options (WithSeed, WithProcessors,
// WithWideIndices, ...) to every shard. A WithWorkers among them
// overrides the pool's own shard-aware worker sizing — set it only when
// deliberately over- or under-subscribing the host.
func WithShardOptions(opts ...Option) PoolOption {
	return func(c *poolConfig) { c.solverOpts = opts }
}

// WithShardAffinity pins each shard's pram workers to a disjoint set
// of CPUs (shard i gets CPUs i*w .. i*w+w-1 of the host, wrapping past
// NumCPU), so a shard's workers share L2/L3 instead of bouncing cache
// lines across the socket between requests. Linux-only: elsewhere —
// and on hosts too small for helper goroutines (one worker per shard
// means the driving goroutine does all the work, and that goroutine is
// the caller's) — it is a no-op. The pinning rides in the shard's
// construction options, so a Solver rebuilt after a panic is pinned
// the same way.
func WithShardAffinity() PoolOption {
	return func(c *poolConfig) { c.affinity = true }
}

// NewPool builds the shard fleet: GOMAXPROCS shards unless WithShards
// says otherwise. Each shard's Solver gets pram-budgeted workers
// (GOMAXPROCS/shards, at least 1), so the whole pool respects the
// host's parallelism budget no matter how many queries are in flight.
// The geometry is fixed for the pool's lifetime. Call Close to stop
// every shard's worker pool.
func NewPool(opts ...PoolOption) *Pool {
	var cfg poolConfig
	for _, o := range opts {
		o(&cfg)
	}
	m := cfg.shards
	if m <= 0 {
		m = pram.DefaultShards()
	}
	depth := cfg.queue
	switch {
	case depth == 0:
		depth = 8 * m
	case depth < 0:
		depth = 0
	}
	w := pram.WorkersForShards(m)
	p := &Pool{depth: depth}
	for i := 0; i < m; i++ {
		// The pinned WithWorkers comes first so the caller's shard
		// options can override it; the affinity CPU set rides in the
		// options, so a Solver rebuilt after a panic is pinned the same.
		sopts := append([]Option{WithWorkers(w)}, cfg.solverOpts...)
		if cfg.affinity && pram.AffinitySupported() {
			cpus := make([]int, w)
			for j := range cpus {
				cpus[j] = (i*w + j) % runtime.NumCPU()
			}
			sopts = append(sopts, withCPUSet(cpus))
		}
		sv := NewSolver(sopts...)
		p.shards = append(p.shards, &poolShard{
			id:      i,
			slot:    make(chan struct{}, 1),
			sv:      sv,
			opts:    sopts,
			workers: sv.Workers(),
		})
	}
	// All shards share one base config (only workers could differ, and
	// workers are not part of a cache key).
	p.baseCfg = p.shards[0].sv.cfg
	if cfg.cacheBytes > 0 {
		p.cache = covercache.New(cfg.cacheBytes)
	}
	return p
}

// NumShards returns the pool's shard count.
func (p *Pool) NumShards() int { return len(p.shards) }

// InFlight reports how many admitted calls are inside the pool right
// now (queued plus executing).
func (p *Pool) InFlight() int64 { return p.inflight.Load() }

// QueueDepth reports the admission bound (0 = unbounded).
func (p *Pool) QueueDepth() int { return p.depth }

// Load reports the pool's outstanding dispatch load: the sum over
// shards of queued-plus-executing vertices (each call also counts 1, so
// empty graphs still register). internal/daemon's cost-based shedding
// projects queue time from it.
func (p *Pool) Load() int64 {
	total := int64(0)
	for _, sh := range p.shards {
		total += sh.load.Load()
	}
	return total
}

// leastLoaded picks the shard with the smallest outstanding vertex
// load, ties going to the lowest id. Load is added before the slot
// wait, so concurrent dispatchers spread out. The lowest-id tie-break
// keeps a lone sequential caller on shard 0: on an idle pool every
// shard ties, and spreading such a caller round the shards would grow
// a warm, full-size arena on each of them.
func (p *Pool) leastLoaded() *poolShard {
	best, bl := p.shards[0], p.shards[0].load.Load()
	for _, sh := range p.shards[1:] {
		if l := sh.load.Load(); l < bl {
			best, bl = sh, l
		}
	}
	return best
}

// admit performs admission control for one logical call (a single
// cover, or a whole batch). The returned release must be called exactly
// once when the call leaves the pool.
func (p *Pool) admit(ctx context.Context) (release func(), err error) {
	if p.closed.Load() {
		return nil, ErrPoolClosed
	}
	if err := ctx.Err(); err != nil {
		p.canceled.Add(1)
		return nil, err
	}
	if p.depth > 0 && p.inflight.Add(1) > int64(p.depth) {
		p.inflight.Add(-1)
		p.rejected.Add(1)
		return nil, ErrPoolSaturated
	}
	if p.depth <= 0 {
		p.inflight.Add(1)
	}
	return func() { p.inflight.Add(-1) }, nil
}

// runOn waits for exclusive ownership of sh's Solver (honoring ctx
// while queued) and runs f. The caller must already hold an admission
// ticket and have accounted its load on sh.
func (p *Pool) runOn(ctx context.Context, sh *poolShard, f func(sh *poolShard) error) error {
	select {
	case sh.slot <- struct{}{}:
	case <-ctx.Done():
		p.canceled.Add(1)
		return ctx.Err()
	}
	defer func() { <-sh.slot }()
	// Close may have won the race for this slot's release cycle: it sets
	// closed before draining the slots, so this check is sufficient to
	// never touch a closed shard's Solver.
	if p.closed.Load() {
		return ErrPoolClosed
	}
	if err := ctx.Err(); err != nil {
		p.canceled.Add(1)
		return err
	}
	return p.safeRun(sh, f)
}

// safeRun executes f with the shard's slot held, converting a panic
// anywhere in the solve into a *PanicError and rebuilding the shard's
// Solver: a half-finished arena or poisoned worker pool must never
// serve the next request, but one poisoned request must not take the
// pool (or the process) down either. The deferred slot release in runOn
// still runs, so the slot cannot leak.
func (p *Pool) safeRun(sh *poolShard, f func(sh *poolShard) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			p.restartShard(sh)
			err = &PanicError{Value: r}
		}
	}()
	return f(sh)
}

// restartShard replaces a poisoned shard's Solver with a fresh one
// built from the same options. Called with the shard's slot held, so
// the swap is invisible to other dispatchers; the old Solver is closed
// best-effort (its own state may be the thing that panicked). The swap
// and the restart tick commit together under statsMu, closing the
// window where Stats could see the rebuilt shard with a stale Restarts
// count.
func (p *Pool) restartShard(sh *poolShard) {
	old := sh.sv
	sv := NewSolver(sh.opts...)
	sh.statsMu.Lock()
	sh.sv = sv
	sh.restarts++
	sh.statsMu.Unlock()
	func() {
		defer func() { _ = recover() }()
		old.Close()
	}()
}

// withShard admits one call, reserves the least-loaded shard and runs f
// with exclusive ownership of that shard's Solver. cost is the load
// metric (vertices) steering the dispatcher.
func (p *Pool) withShard(ctx context.Context, cost int, f func(sh *poolShard) error) error {
	release, err := p.admit(ctx)
	if err != nil {
		return err
	}
	defer release()
	sh := p.leastLoaded()
	load := int64(cost) + 1
	sh.load.Add(load)
	defer sh.load.Add(-load)
	return p.runOn(ctx, sh, f)
}

// callCfg derives the per-call config: the shard Solver's base config
// with the call options applied. The worker budget stays pinned — a
// per-call WithWorkers cannot resize a shard's running pool.
func (sh *poolShard) callCfg(opts []Option) config {
	cfg := sh.sv.cfg
	for _, o := range opts {
		o(&cfg)
	}
	cfg.workers = sh.sv.cfg.workers
	return cfg
}

// cover runs one cover on the shard's Solver and copies it out. ctx is
// threaded into the solve so deadlines and cancellation are observed
// between pipeline steps, not just while queued.
func (sh *poolShard) cover(ctx context.Context, g *Graph, opts []Option) (*Cover, error) {
	cfg := sh.callCfg(opts)
	cfg.ctx = ctx
	cov, err := sh.sv.coverCfg(g, cfg)
	if err != nil {
		return nil, err
	}
	if cov.arena {
		cov.Paths = clonePaths(cov.Paths)
		cov.arena = false
	}
	cov.Shard = sh.id
	sh.record(g.N(), cov.Stats)
	return cov, nil
}

// MinimumPathCover computes a minimum path cover of g on the
// least-loaded shard. The context covers the queue wait as well as
// admission; the returned cover is the caller's to keep.
//
// On a pool built with WithCache, eligible requests (see cacheKey) are
// first resolved against the canonical-identity cache: a resident
// cover for the same graph — under any vertex relabelling — is copied
// out and remapped into g's numbering without occupying a shard, and
// concurrent requests for one uncached graph coalesce onto a single
// solve. The cache flight runs before admission, so waiters hold no
// queue slot; the solve itself (the cache fill) is admitted normally.
func (p *Pool) MinimumPathCover(ctx context.Context, g *Graph, opts ...Option) (*Cover, error) {
	key, form, cacheable := p.cacheKey(g, opts)
	if !cacheable {
		return p.solveCover(ctx, g, opts)
	}
	if p.closed.Load() {
		// Hits must not outlive the pool: Close means closed.
		return nil, ErrPoolClosed
	}
	var missCov *Cover
	entry, outcome, err := p.cache.Do(ctx, key, func() (*covercache.Entry, error) {
		cov, err := p.solveCover(ctx, g, opts)
		if err != nil {
			return nil, err
		}
		missCov = cov
		return entryFromCover(cov, form), nil
	})
	if err != nil {
		return nil, err
	}
	if outcome == covercache.Miss && missCov != nil {
		// The filling request answers with the pipeline's own cover —
		// charged Stats and all, bit-identical to an uncached solve.
		return missCov, nil
	}
	return coverFromEntry(entry, form), nil
}

// solveCover is the uncached solve path: admission, least-loaded shard
// dispatch, copy-out. Exactly the pre-cache MinimumPathCover.
func (p *Pool) solveCover(ctx context.Context, g *Graph, opts []Option) (*Cover, error) {
	var out *Cover
	err := p.withShard(ctx, g.N(), func(sh *poolShard) error {
		cov, err := sh.cover(ctx, g, opts)
		if err != nil {
			return err
		}
		out = cov
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// coverMaybeCached serves one batch item, through the cache when the
// item is eligible, solving on the already-held shard otherwise (and
// on misses). It uses TryDo, never waiting on another request's
// in-flight solve: the caller holds a shard slot that a flight leader
// may itself be queued on, so waiting could deadlock. A cross-shard
// race on the same key at worst solves twice and unifies at insert.
func (p *Pool) coverMaybeCached(ctx context.Context, sh *poolShard, g *Graph, opts []Option) (*Cover, error) {
	key, form, cacheable := p.cacheKey(g, opts)
	if !cacheable {
		return sh.cover(ctx, g, opts)
	}
	var missCov *Cover
	entry, outcome, err := p.cache.TryDo(key, func() (*covercache.Entry, error) {
		cov, err := sh.cover(ctx, g, opts)
		if err != nil {
			return nil, err
		}
		missCov = cov
		return entryFromCover(cov, form), nil
	})
	if err != nil {
		return nil, err
	}
	if outcome == covercache.Miss && missCov != nil {
		return missCov, nil
	}
	return coverFromEntry(entry, form), nil
}

// HamiltonianPath returns a Hamiltonian path of g (ok=false when none
// exists), computed by the parallel pipeline on a shard. The slice is
// the caller's to keep.
func (p *Pool) HamiltonianPath(ctx context.Context, g *Graph, opts ...Option) ([]int, bool, error) {
	return p.hamiltonian(ctx, g, opts, (*Solver).hamiltonianPathCfg)
}

// HamiltonianCycle returns a Hamiltonian cycle of g (ok=false when none
// exists), computed by the parallel pipeline on a shard. The slice is
// the caller's to keep.
func (p *Pool) HamiltonianCycle(ctx context.Context, g *Graph, opts ...Option) ([]int, bool, error) {
	return p.hamiltonian(ctx, g, opts, (*Solver).hamiltonianCycleCfg)
}

func (p *Pool) hamiltonian(ctx context.Context, g *Graph, opts []Option,
	run func(sv *Solver, g *Graph, cfg config) ([]int, bool, error)) ([]int, bool, error) {
	var path []int
	var ok bool
	err := p.withShard(ctx, g.N(), func(sh *poolShard) error {
		cfg := sh.callCfg(opts)
		cfg.ctx = ctx
		q, k, err := run(sh.sv, g, cfg)
		if err != nil {
			return err
		}
		path = append([]int(nil), q...)
		ok = k
		sh.record(g.N(), sh.sv.Stats())
		return nil
	})
	if err != nil {
		return nil, false, err
	}
	return path, ok, nil
}

// CoverBatch computes minimum path covers for every graph of the batch,
// returned in input order. The batch is regrouped before execution:
// requests of the same index width and similar size — and duplicate
// graphs in particular — land adjacently on the same shard, keeping
// each shard's request stream homogeneous for its scratch arena's size
// classes, then the groups run on the shards concurrently. On error
// (including context cancellation and a saturated or closed pool) the
// whole batch fails and the partial results are discarded.
func (p *Pool) CoverBatch(ctx context.Context, gs []*Graph, opts ...Option) ([]*Cover, error) {
	if len(gs) == 0 {
		return nil, nil
	}
	// The whole batch is one admission unit: it occupies one queue slot
	// no matter how many shard segments it fans out to, so a bounded
	// queue shorter than the shard count cannot starve batches.
	release, err := p.admit(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	p.batches.Add(1)
	segs := p.batchSegments(gs)
	out := make([]*Cover, len(gs))
	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}
	for _, seg := range segs {
		// Shards are assigned here, sequentially, so each segment's load
		// lands on the dispatcher's books before the next segment picks:
		// an idle pool spreads k segments over k distinct shards instead
		// of racing all of them onto the same least-loaded one.
		segCost := int64(0)
		for _, idx := range seg {
			segCost += int64(gs[idx].N()) + 1
		}
		sh := p.leastLoaded()
		sh.load.Add(segCost)
		wg.Add(1)
		go func(sh *poolShard, seg []int, segCost int64) {
			defer wg.Done()
			defer sh.load.Add(-segCost)
			err := p.runOn(ctx, sh, func(sh *poolShard) error {
				for _, idx := range seg {
					if err := ctx.Err(); err != nil {
						p.canceled.Add(1)
						return err
					}
					if p.closed.Load() {
						return ErrPoolClosed
					}
					cov, err := p.coverMaybeCached(ctx, sh, gs[idx], opts)
					if err != nil {
						return err
					}
					out[idx] = cov
				}
				return nil
			})
			if err != nil {
				fail(err)
			}
		}(sh, seg, segCost)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// batchSegments orders the batch for locality and splits it into at
// most one contiguous segment per shard, balanced by total vertices.
// The order key is (index width, size bucket, first appearance of the
// graph value): same-width and similar-n requests group together, and
// repeated queries of the identical graph become adjacent, so a shard
// replays the same arena size classes call after call instead of
// bouncing between widths and sizes.
func (p *Pool) batchSegments(gs []*Graph) [][]int {
	first := make(map[*Graph]int, len(gs))
	for i, g := range gs {
		if _, ok := first[g]; !ok {
			first[g] = i
		}
	}
	order := make([]int, len(gs))
	for i := range order {
		order[i] = i
	}
	key := func(i int) [3]int {
		n := gs[i].N()
		return [3]int{int(core.AutoWidth(n)), bits.Len(uint(n)), first[gs[i]]}
	}
	sort.SliceStable(order, func(a, b int) bool {
		ka, kb := key(order[a]), key(order[b])
		for i := range ka {
			if ka[i] != kb[i] {
				return ka[i] < kb[i]
			}
		}
		return false
	})
	k := len(p.shards)
	total := 0
	for _, g := range gs {
		total += g.N() + 1
	}
	target := (total + k - 1) / k
	segs := make([][]int, 0, k)
	var cur []int
	acc := 0
	for _, idx := range order {
		cur = append(cur, idx)
		acc += gs[idx].N() + 1
		if acc >= target && len(segs) < k-1 {
			segs = append(segs, cur)
			cur, acc = nil, 0
		}
	}
	if len(cur) > 0 {
		segs = append(segs, cur)
	}
	return segs
}

// Close marks the pool closed, waits for in-flight calls to drain,
// stops every shard's worker pool, and wakes queued waiters (which then
// fail with ErrPoolClosed). Close is idempotent and safe to call
// concurrently with in-flight work; batches observe the close between
// items and abort.
func (p *Pool) Close() {
	p.closeOne.Do(func() {
		p.closed.Store(true)
		// Drain: taking every slot waits out the in-flight calls (and
		// beats queued waiters, who re-check closed once they get a slot).
		for _, sh := range p.shards {
			sh.slot <- struct{}{}
		}
		for _, sh := range p.shards {
			sh.sv.Close()
		}
		for _, sh := range p.shards {
			<-sh.slot
		}
	})
}

// ShardStats is one shard's aggregate serving record.
type ShardStats struct {
	Shard    int   `json:"shard"`
	Workers  int   `json:"workers"`
	Calls    int64 `json:"calls"`
	Vertices int64 `json:"vertices"`
	SimTime  int64 `json:"sim_time"`
	SimWork  int64 `json:"sim_work"`
	Load     int64 `json:"load"`
	Restarts int64 `json:"restarts"`
	// ArenaBytes is the shard Solver's retained arena footprint as of
	// its most recent completed call (see Solver.ArenaBytes).
	ArenaBytes int64 `json:"arena_bytes"`
}

// PoolStats aggregates the pool's serving counters: per-shard records
// plus their totals, the admission-control counters, and — on cached
// pools — the result cache's counters (nil when the pool is uncached;
// shard counters record only cache misses, since hits never solve).
type PoolStats struct {
	Shards     []ShardStats `json:"shards"`
	Calls      int64        `json:"calls"`
	Vertices   int64        `json:"vertices"`
	SimTime    int64        `json:"sim_time"`
	SimWork    int64        `json:"sim_work"`
	Batches    int64        `json:"batches"`
	Rejected   int64        `json:"rejected"`
	Canceled   int64        `json:"canceled"`
	Restarts   int64        `json:"restarts"`
	InFlight   int64        `json:"in_flight"`
	QueueDepth int          `json:"queue_depth"`
	// ArenaBytes totals the shards' retained arena footprints.
	ArenaBytes int64       `json:"arena_bytes"`
	Cache      *CacheStats `json:"cache,omitempty"`
}

// Stats snapshots the pool's counters. Safe to call concurrently with
// serving; each shard row is snapshotted under that shard's stats lock,
// so a row is always internally consistent (a call's vertices never
// appear without its sim counters, a rebuilt shard never without its
// restart tick). The pool-level totals sum per-shard snapshots taken in
// sequence, not one global cut.
func (p *Pool) Stats() PoolStats {
	st := PoolStats{
		Batches:    p.batches.Load(),
		Rejected:   p.rejected.Load(),
		Canceled:   p.canceled.Load(),
		InFlight:   p.inflight.Load(),
		QueueDepth: p.depth,
	}
	for _, sh := range p.shards {
		sh.statsMu.Lock()
		row := ShardStats{
			Shard:      sh.id,
			Workers:    sh.workers,
			Calls:      sh.calls,
			Vertices:   sh.vertices,
			SimTime:    sh.simTime,
			SimWork:    sh.simWork,
			Load:       sh.load.Load(),
			Restarts:   sh.restarts,
			ArenaBytes: sh.arena,
		}
		sh.statsMu.Unlock()
		st.Shards = append(st.Shards, row)
		st.Calls += row.Calls
		st.Vertices += row.Vertices
		st.SimTime += row.SimTime
		st.SimWork += row.SimWork
		st.Restarts += row.Restarts
		st.ArenaBytes += row.ArenaBytes
	}
	if p.cache != nil {
		cs := p.cache.Stats()
		st.Cache = &CacheStats{
			Hits:      cs.Hits,
			Misses:    cs.Misses,
			Coalesced: cs.Coalesced,
			Evictions: cs.Evictions,
			Entries:   cs.Entries,
			Bytes:     cs.Bytes,
			Capacity:  cs.Capacity,
		}
	}
	return st
}
