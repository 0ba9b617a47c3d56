// Package pathcover finds minimum path covers, Hamiltonian paths and
// Hamiltonian cycles of cographs, implementing the time- and
// work-optimal parallel algorithm of
//
//	K. Nakano, S. Olariu, A. Y. Zomaya,
//	"A Time-Optimal Solution for the Path Cover Problem on Cographs",
//	IPPS 1999 / Theoretical Computer Science 290 (2003) 1541-1556.
//
// A cograph (complement-reducible graph) is built from single vertices
// by disjoint union and join; equivalently it is a graph with no induced
// P4. Cographs are represented here by their cotree, and the path cover
// problem — NP-complete in general — is solved exactly: sequentially in
// O(n) time (Lin–Olariu–Pruesse), and in parallel in O(log n) simulated
// PRAM time with n/log n processors and O(n) work (the paper's
// contribution), with the parallel phases executed on real goroutines.
//
// Basic use:
//
//	g, _ := pathcover.ParseCotree("(1 (0 a b) c)")
//	cover, _ := g.MinimumPathCover()
//	fmt.Println(cover.Paths) // e.g. [[0 2 1]] — one Hamiltonian path
//
// Graphs can also be built programmatically (Vertex, Union, Join,
// Complement), generated (Random and the family constructors), or
// recognized from an adjacency structure (FromEdges), which rejects
// non-cographs.
//
// For query serving, Solver amortises one worker pool and scratch arena
// across sequential calls, and Pool shards many Solvers across the host
// with least-loaded dispatch, batched covers (CoverBatch) and bounded
// admission; cmd/pathcoverd serves the Pool over HTTP.
package pathcover

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"

	"pathcover/internal/backend"
	"pathcover/internal/baseline"
	"pathcover/internal/canon"
	"pathcover/internal/cograph"
	"pathcover/internal/core"
	"pathcover/internal/cotree"
	"pathcover/internal/pram"
	"pathcover/internal/render"
	"pathcover/internal/verify"
)

// MaxVertices is the largest vertex count FromEdges, FromEdgesAny and
// the generators accept: edge-list recognition indexes vertices with
// 32 bits (and on 32-bit hosts int itself could not hold derived ids).
// Below it, FromEdges and FromEdgesAny take O(n + m) time and memory,
// so a caller bounds their cost by bounding n and the edge list
// (pathcoverd caps n at half its body limit). The cover pipeline needs
// no such guard: past the narrow-index bound it falls back to wide
// kernels automatically instead of truncating.
const MaxVertices = math.MaxInt32

// SizeError is the typed error returned (or carried by the panic of a
// generator) when a requested graph size is negative or exceeds
// MaxVertices.
type SizeError struct {
	N   int // the requested vertex count
	Max int // the supported maximum
}

// Error describes the unsupported vertex count.
func (e *SizeError) Error() string {
	if e.N < 0 {
		return fmt.Sprintf("pathcover: negative vertex count %d", e.N)
	}
	return fmt.Sprintf("pathcover: %d vertices exceed the supported maximum %d", e.N, e.Max)
}

// checkN validates a requested vertex count, returning a typed error for
// sizes no representation in this package can hold.
func checkN(n int) error {
	if n < 0 || n > MaxVertices {
		return &SizeError{N: n, Max: MaxVertices}
	}
	return nil
}

// mustValidN is checkN for the generators, whose signatures predate the
// guard; they panic with the *SizeError instead of silently truncating.
func mustValidN(n int) {
	if err := checkN(n); err != nil {
		panic(err)
	}
}

// Graph is a graph to cover. A cograph (the paper's domain) is stored
// as its cotree and served exactly by the parallel pipeline; a graph
// built by FromEdgesAny that is not a cograph is stored as raw
// adjacency and served by the degraded backends (exact tree DP for
// forests, deterministic ½-approximation otherwise) — see Backend.
type Graph struct {
	t      *cotree.Tree
	oracle *cotree.AdjOracle

	// Raw (non-cograph) representation; exactly one of t and raw is
	// non-nil.
	raw   *backend.Graph
	names []string

	// Memoized canonical form (cographs only; see cache.go). Computed
	// at most once per Graph, on first cache or CanonicalHash use.
	canonOnce sync.Once
	canonForm *canon.Form
}

// ParseCotree reads a cograph from the cotree text format:
//
//	tree  := leaf | "(" label tree tree ... ")"
//	label := "0" (union) | "1" (join)
//
// e.g. "(1 (0 a b) c)" is the join of the edgeless graph {a,b} with c
// (the path a-c-b).
func ParseCotree(src string) (*Graph, error) {
	t, err := cotree.Parse(src)
	if err != nil {
		return nil, err
	}
	return &Graph{t: t}, nil
}

// FromEdges builds a cograph from an explicit edge list on vertices
// 0..n-1, recognizing its cotree. It returns an error when the graph is
// not a cograph (it contains an induced P4). names may be nil.
//
// Recognition takes O(n + m) time and memory. It renumbers vertices in
// the cotree's leaf order; use Name to map back (vertex i of the result
// is named after its original index, "v<k>" by default). The numbering
// depends only on the edge set, not on edge order or duplicates.
func FromEdges(n int, edges [][2]int, names []string) (*Graph, error) {
	adj, err := adjacency(n, edges)
	if err != nil {
		return nil, err
	}
	t, err := cograph.RecognizeAdjacency(adj, names)
	if err != nil {
		return nil, err
	}
	return &Graph{t: t}, nil
}

// adjacency validates an edge list and builds its sorted, deduplicated
// adjacency lists in O(n + m), the one structure recognition and the
// degraded backends share.
func adjacency(n int, edges [][2]int) (*cograph.Adjacency, error) {
	if err := checkN(n); err != nil {
		return nil, err
	}
	adj, err := cograph.NewAdjacency(n, edges)
	if err != nil {
		return nil, fmt.Errorf("pathcover: %w", err)
	}
	return adj, nil
}

// Vertex returns the one-vertex cograph.
func Vertex(name string) *Graph {
	return &Graph{t: cotree.Single(name)}
}

// Union returns the disjoint union of the given cographs.
func Union(gs ...*Graph) *Graph {
	return &Graph{t: cotree.Union(trees(gs)...)}
}

// Join returns the join of the given cographs: their union plus every
// edge between distinct parts.
func Join(gs ...*Graph) *Graph {
	return &Graph{t: cotree.Join(trees(gs)...)}
}

// Complement returns the complement cograph.
func Complement(g *Graph) *Graph {
	return &Graph{t: cotree.Complement(g.t)}
}

func trees(gs []*Graph) []*cotree.Tree {
	ts := make([]*cotree.Tree, len(gs))
	for i, g := range gs {
		if g.t == nil {
			panic("pathcover: cotree composition (Union/Join/Complement) requires cographs")
		}
		ts[i] = g.t
	}
	return ts
}

// N returns the number of vertices.
func (g *Graph) N() int {
	if g.t == nil {
		return g.raw.N
	}
	return g.t.NumVertices()
}

// Name returns the display name of a vertex.
func (g *Graph) Name(v int) string {
	if g.t == nil {
		if v >= 0 && v < len(g.names) && g.names[v] != "" {
			return g.names[v]
		}
		return fmt.Sprintf("v%d", v)
	}
	return g.t.Name(v)
}

// Adjacent reports whether two vertices are adjacent (O(log n) after a
// lazily built LCA oracle for cographs, binary search on sorted
// adjacency for raw graphs).
func (g *Graph) Adjacent(x, y int) bool {
	if g.t == nil {
		return g.raw.Adjacent(x, y)
	}
	if g.oracle == nil {
		g.oracle = cotree.NewAdjOracle(g.t)
	}
	return g.oracle.Adjacent(x, y)
}

// NumEdges counts the edges: O(1) for raw graphs, O(n) from the cotree
// (sum over 1-nodes of the products of child leaf counts) for cographs.
func (g *Graph) NumEdges() int {
	if g.t == nil {
		return len(g.raw.Edges)
	}
	t := g.t
	var walk func(u int) int // returns leaf count, accumulates edges
	total := 0
	walk = func(u int) int {
		if t.Label[u] == cotree.LabelLeaf {
			return 1
		}
		sum := 0
		for _, c := range t.Children[u] {
			lc := walk(c)
			if t.Label[u] == cotree.Label1 {
				total += sum * lc
			}
			sum += lc
		}
		return sum
	}
	walk(t.Root)
	return total
}

// String renders the cotree text form for cographs and an edge-list
// summary for raw graphs.
func (g *Graph) String() string {
	if g.t == nil {
		return fmt.Sprintf("graph(n=%d m=%d)", g.raw.N, len(g.raw.Edges))
	}
	return g.t.String()
}

// Render returns an ASCII drawing of the cotree (raw graphs, which have
// no cotree, render as their String form).
func (g *Graph) Render() string {
	if g.t == nil {
		return g.String()
	}
	return render.Tree(g.t)
}

// RenderCover returns an ASCII rendering of a cover's paths with vertex
// names.
func (g *Graph) RenderCover(paths [][]int) string {
	if g.t == nil {
		// Same line format as render.Paths, which needs a cotree.
		var b strings.Builder
		for i, p := range paths {
			fmt.Fprintf(&b, "path %d (%d vertices): ", i+1, len(p))
			for j, v := range p {
				if j > 0 {
					b.WriteString(" — ")
				}
				b.WriteString(g.Name(v))
			}
			b.WriteByte('\n')
		}
		return b.String()
	}
	return render.Paths(g.t, paths)
}

// Verify checks that paths is a valid path cover of g and, when the
// exact size is computable (cographs and forests), that it is minimum.
// For other raw graphs — where minimum path cover is NP-hard and the
// answer came from the approximation backend — only validity (a
// partition of the vertices into adjacency-respecting paths) is
// checked.
func (g *Graph) Verify(paths [][]int) error {
	if g.t == nil {
		if err := backend.VerifyCover(g.raw, paths); err != nil {
			return err
		}
		if want := backend.TreeCoverSize(g.raw); want >= 0 && len(paths) != want {
			return fmt.Errorf("pathcover: %d paths, minimum is %d", len(paths), want)
		}
		return nil
	}
	return verify.MinimumCover(g.t, paths)
}

// MinPathCoverSize returns the number of paths in a minimum path cover
// without constructing it: the Lin et al. recurrence (O(n) sequential)
// for cographs, the greedy tree DP for raw forests. For raw graphs with
// cycles the exact size is NP-hard and -1 is returned; use
// MinimumPathCover's LowerBound/Gap fields instead.
func (g *Graph) MinPathCoverSize() int {
	if g.t == nil {
		return backend.TreeCoverSize(g.raw)
	}
	s := pram.NewSerial()
	b := g.t.Binarize(s)
	L := b.MakeLeftist(s, 1)
	return baseline.PathCounts(b, L)[b.Root]
}

// sharedPool is the process-wide Pool behind the package-level Graph
// methods. Routing one-shot calls through it (instead of the earlier
// sync.Pool of transient Solvers) bounds the process to a fixed,
// host-budgeted solver fleet: concurrent API callers queue onto shards
// rather than spawning an unbounded set of worker pools, and one-shot
// traffic shows up in the same per-shard accounting as explicit Pool
// traffic. It has the default geometry — one shard per CPU — and a lone
// sequential caller stays on shard 0 (see leastLoaded), so it keeps one
// warm arena. Its admission queue is unbounded, preserving the
// historical contract that Graph methods never fail with a
// load-shedding error.
var (
	sharedOnce sync.Once
	shared     *Pool
)

func sharedPool() *Pool {
	sharedOnce.Do(func() {
		shared = NewPool(WithQueueDepth(-1))
	})
	return shared
}

// sharedDo runs f with exclusive ownership of a Solver compatible with
// cfg: a shard of the process-wide pool normally, or a transient Solver
// when cfg pins a custom worker count (only the worker count is baked
// into a Solver at construction; all other per-call configuration rides
// in via cfg). f must copy results out before returning — the shard's
// arena serves the next caller immediately after.
func sharedDo(cfg config, n int, f func(sv *Solver) error) error {
	if cfg.workers > 0 {
		sv := NewSolver(WithWorkers(cfg.workers))
		defer sv.Close()
		return f(sv)
	}
	return sharedPool().withShard(context.Background(), n, func(sh *poolShard) error {
		err := f(sh.sv)
		if err == nil {
			sh.record(n, sh.sv.Stats())
		}
		return err
	})
}

// MinimumPathCover computes a minimum path cover. The default runs the
// paper's parallel algorithm on the PRAM cost simulator with the
// paper's processor count n/log n; see Options for the sequential and
// naive-parallel baselines and for tuning.
//
// Each call returns freshly allocated paths. For query-serving loops,
// NewSolver amortises the execution state across calls and avoids the
// copy.
func (g *Graph) MinimumPathCover(opts ...Option) (*Cover, error) {
	cfg := defaultConfig(g.N())
	for _, o := range opts {
		o(&cfg)
	}
	route, rg, err := g.resolveBackend(cfg)
	if err != nil {
		return nil, err
	}
	if route != BackendCograph {
		// Degraded backends run on plain heap memory with no worker pool;
		// no shard reservation needed.
		return degradedCover(rg, route, cfg.checkFn())
	}
	if cfg.algorithm == Sequential {
		if check := cfg.checkFn(); check != nil {
			if err := check("step1"); err != nil {
				return nil, err
			}
		}
		paths := baseline.Run(g.t)
		return exactCograph(&Cover{Paths: paths, NumPaths: len(paths)}), nil
	}
	var cov *Cover
	err = sharedDo(cfg, g.N(), func(sv *Solver) error {
		c, err := sv.coverCfg(g, cfg)
		if err != nil {
			return err
		}
		if c.arena {
			// The parallel pipeline's paths live in the shard's arena; copy
			// before the shard serves the next call.
			c.Paths = clonePaths(c.Paths)
			c.arena = false
		}
		cov = c
		return nil
	})
	if err != nil {
		return nil, err
	}
	return cov, nil
}

// clonePaths deep-copies arena-backed paths into ordinary heap slices
// (one shared backing array, like the arena layout).
func clonePaths(paths [][]int) [][]int {
	total := 0
	for _, p := range paths {
		total += len(p)
	}
	backing := make([]int, total)
	out := make([][]int, len(paths))
	off := 0
	for i, p := range paths {
		copy(backing[off:], p)
		out[i] = backing[off : off+len(p) : off+len(p)]
		off += len(p)
	}
	return out
}

// fallbackHook, when set, observes internal errors of the parallel
// Hamiltonian constructions before the sequential fallback masks them.
var fallbackHook atomic.Pointer[func(op string, err error)]

// SetFallbackHook registers f to be called with the operation name and
// the internal error whenever a parallel construction fails and a
// Graph method silently falls back to the sequential algorithm. Passing
// nil removes the hook. Regressions in the parallel pipeline stay
// observable this way; Solver methods return the error directly instead.
func SetFallbackHook(f func(op string, err error)) {
	if f == nil {
		fallbackHook.Store(nil)
		return
	}
	fallbackHook.Store(&f)
}

func notifyFallback(op string, err error) {
	if f := fallbackHook.Load(); f != nil {
		(*f)(op, err)
	}
}

// HamiltonianPath returns a Hamiltonian path and true when the cograph
// has one (iff the minimum path cover has a single path). The default is
// the sequential construction; WithAlgorithm(Parallel) routes through
// the paper's parallel pipeline, falling back to the sequential
// construction on an internal error (observable via SetFallbackHook).
//
// Hamiltonian constructions are cograph-only (the decision problem is
// NP-hard in general); on a non-cograph Graph from FromEdgesAny no
// path is reported.
func (g *Graph) HamiltonianPath(opts ...Option) ([]int, bool) {
	if g.t == nil {
		return nil, false
	}
	cfg := defaultConfig(g.N())
	cfg.algorithm = Sequential
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.algorithm == Parallel {
		var p []int
		var ok bool
		err := sharedDo(cfg, g.N(), func(sv *Solver) error {
			q, k, err := sv.hamiltonianPathCfg(g, cfg)
			if err != nil {
				return err
			}
			p = append([]int(nil), q...)
			ok = k
			return nil
		})
		if err == nil {
			return p, ok
		}
		notifyFallback("HamiltonianPath", err)
	}
	s := pram.NewSerial()
	b := g.t.Binarize(s)
	L := b.MakeLeftist(s, 1)
	return baseline.HamiltonianPath(b, L)
}

// HamiltonianCycle returns a Hamiltonian cycle and true when the cograph
// has one (decided by the join condition p(v) <= L(w) at the root). The
// default is the sequential construction; WithAlgorithm(Parallel) uses
// the O(log n) split-and-interleave construction, falling back to the
// sequential construction on an internal error (observable via
// SetFallbackHook). Cograph-only, like HamiltonianPath.
func (g *Graph) HamiltonianCycle(opts ...Option) ([]int, bool) {
	if g.t == nil {
		return nil, false
	}
	cfg := defaultConfig(g.N())
	cfg.algorithm = Sequential
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.algorithm == Parallel {
		var c []int
		var ok bool
		err := sharedDo(cfg, g.N(), func(sv *Solver) error {
			q, k, err := sv.hamiltonianCycleCfg(g, cfg)
			if err != nil {
				return err
			}
			c = append([]int(nil), q...)
			ok = k
			return nil
		})
		if err == nil {
			return c, ok
		}
		notifyFallback("HamiltonianCycle", err)
	}
	s := pram.NewSerial()
	b := g.t.Binarize(s)
	L := b.MakeLeftist(s, 1)
	return baseline.HamiltonianCycle(b, L)
}

// Cover is a path cover. Exact reports whether it is provably minimum:
// true for the cograph and tree routes, false for the approximation
// route, whose size is instead bracketed by LowerBound and Gap.
type Cover struct {
	Paths    [][]int
	NumPaths int
	// Stats holds the simulated PRAM cost when the cover was computed by
	// a simulated algorithm (zero for the plain sequential path and for
	// the degraded backends, which run outside the cost model).
	Stats Stats

	// Exact is true when NumPaths is the minimum (cograph and tree
	// backends); approximate answers carry Exact=false even when their
	// gap happens to be zero, because the route cannot prove it.
	Exact bool
	// Backend is the route that produced the cover.
	Backend Backend
	// LowerBound is a proven lower bound on the minimum number of paths
	// (equal to NumPaths for exact routes).
	LowerBound int
	// Gap is NumPaths - LowerBound: zero for exact routes, and an upper
	// bound on how far an approximate answer can be from optimal.
	Gap int

	// Shard identifies, for covers returned by Pool methods, which pool
	// shard solved the request; -1 means the cover was served from the
	// result cache without occupying a shard. Covers produced outside a
	// Pool leave it zero — interpret it only on Pool results.
	Shard int

	// arena marks paths still backed by a Solver's arena (the parallel
	// cograph route); Pool and the Graph methods clone before handing
	// the cover out.
	arena bool
}

// exactCograph stamps the metadata of a cograph-route cover: exact by
// the paper's algorithm, so the lower bound is the answer itself.
func exactCograph(c *Cover) *Cover {
	c.Exact = true
	c.Backend = BackendCograph
	c.LowerBound = c.NumPaths
	return c
}

// Stats reports simulated PRAM cost: Time is the number of parallel
// supersteps, Work the total operations, for Procs simulated processors.
type Stats struct {
	Procs int
	Time  int64
	Work  int64
}

func statsOf(s *pram.Sim) Stats {
	st := s.Stats()
	return Stats{Procs: st.Procs, Time: st.Time, Work: st.Work}
}

// Algorithm selects the cover computation.
type Algorithm int

const (
	// Parallel is the paper's O(log n)-time, O(n)-work algorithm
	// (default).
	Parallel Algorithm = iota
	// Sequential is the Lin–Olariu–Pruesse O(n) algorithm.
	Sequential
	// Naive is the level-synchronous strawman with emulated
	// O(height * log n) cost accounting.
	Naive
)

type config struct {
	algorithm Algorithm
	procs     int
	workers   int
	seed      uint64
	idxWidth  IndexWidth
	cpuset    []int

	// Routing and robustness (see backend.go).
	backend   Backend
	exactOnly bool
	fault     FaultInjector
	faultSet  bool
	ctx       context.Context
}

func defaultConfig(n int) config {
	return config{algorithm: Parallel, procs: pram.ProcsFor(n), seed: 1}
}

// Option configures MinimumPathCover.
type Option func(*config)

// WithAlgorithm selects the algorithm.
func WithAlgorithm(a Algorithm) Option { return func(c *config) { c.algorithm = a } }

// WithProcessors overrides the simulated PRAM processor count (default
// n/log n, the paper's bound).
func WithProcessors(p int) Option { return func(c *config) { c.procs = p } }

// WithWorkers caps the real goroutines executing the parallel phases.
func WithWorkers(w int) Option { return func(c *config) { c.workers = w } }

// WithSeed fixes the randomization seed of the work-optimal list
// ranking (results are deterministic for a fixed seed).
func WithSeed(seed uint64) Option { return func(c *config) { c.seed = seed } }

// IndexWidth selects the element width of the parallel pipeline's
// index arrays; see WithIndexWidth.
type IndexWidth = core.IndexWidth

const (
	// WidthAuto picks the narrowest kernels the input fits: int16 up to
	// core.MaxInt16Vertices, int32 up to core.MaxNarrowVertices, int
	// beyond (the default).
	WidthAuto = core.WidthAuto
	// Width16 forces the int16 kernels; inputs past the int16 bound are
	// rejected with a *WidthError rather than truncated.
	Width16 = core.WidthNarrow16
	// Width32 forces the int32 kernels, with the same reject semantics.
	Width32 = core.WidthNarrow
	// Width64 forces the full-width int kernels (never rejects).
	Width64 = core.WidthWide
)

// MaxInt16Vertices is the largest vertex count the int16 kernel tier —
// Width16, and the first WidthAuto tier — can hold: the 10n bound of
// the dummy-augmented pipeline keeps every intermediate value (Euler
// tour positions, weighted ranks) inside int16 up to exactly this n.
const MaxInt16Vertices = core.MaxInt16Vertices

// WidthError is the typed error returned when a forced narrow index
// width (Width16, Width32) cannot hold the input; it carries the vertex
// count, the width's bound and the width that rejected.
type WidthError = core.WidthError

// WithIndexWidth selects the index-array width of the parallel
// pipeline. The default, WidthAuto, streams the fewest bytes the input
// permits; forcing a width exists for diagnostics and differential
// testing, and a forced narrow width returns a *WidthError when the
// input exceeds its bound. The paths and the simulated cost counters
// are identical across all widths.
func WithIndexWidth(w IndexWidth) Option { return func(c *config) { c.idxWidth = w } }

// WithWideIndices forces the parallel pipeline onto full-width (int)
// index arrays: shorthand for WithIndexWidth(Width64), kept for
// compatibility.
func WithWideIndices() Option { return WithIndexWidth(Width64) }

// RouteWidth reports the kernel width ("int16", "int32" or "int") the
// default WidthAuto dispatch routes an n-vertex request to — the
// serving tier of the request, as surfaced in pcbench routing counts.
func RouteWidth(n int) string { return core.AutoWidth(n).String() }

// withCPUSet pins the Solver's pram workers to the given CPUs (Linux;
// no-op elsewhere). Unexported: reached through Pool's
// WithShardAffinity, which derives a disjoint set per shard.
func withCPUSet(cpus []int) Option { return func(c *config) { c.cpuset = cpus } }
