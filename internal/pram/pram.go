// Package pram simulates the Parallel Random Access Machine cost model
// used by Nakano, Olariu and Zomaya in "A Time-Optimal Solution for the
// Path Cover Problem on Cographs" (TCS 290, 2003).
//
// A PRAM consists of p synchronous processors sharing a memory. The two
// complexity measures of the paper are parallel time T(n) — the number of
// synchronous supersteps — and work W(n) = p × T(n). The paper's headline
// algorithm runs in O(log n) time on n/log n EREW processors, hence O(n)
// work.
//
// Physical PRAMs do not exist, so this package substitutes a cost
// simulator: algorithms are written against Sim, whose ParallelFor and
// Blocks methods charge time and work according to Brent's scheduling
// principle (a phase of n constant-time operations on p processors costs
// ceil(n/p) time and n work) while executing the phase body chunked over
// real goroutines. Setting Procs to n/ceil(log2 n) makes the Time counter
// directly comparable against the paper's O(log n) claim, and the Work
// counter against the O(n) claim, while the goroutine execution provides
// genuine wall-clock parallelism on multicore hosts.
//
// The exclusive-access discipline of the EREW model is a property of the
// algorithm rather than of the host; the Machine type in this package
// provides step-synchronous checked arrays that audit kernels for
// exclusive-read/exclusive-write violations.
package pram

import (
	"fmt"
	"runtime"
)

// Model selects the memory-access discipline audited by Machine and
// reported in simulation statistics.
type Model int

const (
	// EREW forbids two processors from touching the same cell in one step.
	EREW Model = iota
	// CREW allows concurrent reads but forbids concurrent writes.
	CREW
	// CRCW allows concurrent reads and writes (priority semantics:
	// the highest-numbered processor wins a write conflict).
	CRCW
)

// String returns the conventional abbreviation of the model.
func (m Model) String() string {
	switch m {
	case EREW:
		return "EREW"
	case CREW:
		return "CREW"
	case CRCW:
		return "CRCW"
	}
	return fmt.Sprintf("Model(%d)", int(m))
}

// Sim is a PRAM cost simulator. It accounts parallel time and work for a
// configurable number of simulated processors while executing phase bodies
// on real goroutines.
//
// A Sim must be driven from a single goroutine: phases are issued one
// after another, mirroring the synchronous superstep structure of the
// PRAM. The phase bodies themselves run concurrently and must therefore
// only perform conflict-free memory accesses, exactly as an EREW kernel
// would.
//
// Execution is backed by a persistent worker pool (created lazily on the
// first phase large enough to split) and a scratch arena of reusable
// buffers, so a steady-state superstep performs no goroutine creation
// and no allocation. Call Close when done with a multi-worker Sim to
// stop the pool promptly; a garbage-collected Sim stops it via a runtime
// cleanup either way.
type Sim struct {
	procs   int // simulated PRAM processors (p in the paper)
	workers int // real goroutines used to execute phases
	grain   int // minimum iterations per goroutine before splitting
	cutover int // sequential-cutover threshold (0 = resolve measured default)
	time    int64
	work    int64
	phases  int64

	pool    *workerPool
	cleanup runtime.Cleanup
	closed  bool
	scratch Scratch

	// Reusable adapter turning the pool's flat func(i int) body into the
	// (block, lo, hi) body of Blocks without a per-phase closure.
	blockFn   func(block, lo, hi int)
	blockBS   int
	blockN    int
	blockBody func(i int)
}

// Option configures a Sim.
type Option func(*Sim)

// WithWorkers fixes the number of real goroutines used to execute phases.
// The default is min(procs, runtime.GOMAXPROCS(0)).
func WithWorkers(w int) Option {
	return func(s *Sim) {
		if w > 0 {
			s.workers = w
		}
	}
}

// WithGrain sets the minimum number of iterations a phase must have before
// it is split across goroutines. Smaller phases run inline. The default is
// 4096. Setting an explicit grain also pins the sequential cutover to the
// same value (dispatch anything at least this large), unless WithSeqCutover
// overrides it.
func WithGrain(g int) Option {
	return func(s *Sim) {
		if g > 0 {
			s.grain = g
			if s.cutover == 0 {
				s.cutover = g
			}
		}
	}
}

// New returns a simulator with p simulated processors.
func New(procs int, opts ...Option) *Sim {
	if procs < 1 {
		procs = 1
	}
	s := &Sim{
		procs:   procs,
		workers: min(procs, runtime.GOMAXPROCS(0)),
		grain:   4096,
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// NewSerial returns a single-processor simulator. It executes every phase
// inline and deterministically; it is the reference interpretation of each
// parallel algorithm. A serial Sim never spawns workers and performs no
// per-phase allocation.
func NewSerial() *Sim { return New(1) }

// Scratch returns the Sim's arena of reusable buffers (see Grab and
// Release). Like the Sim it must only be used from the driving
// goroutine, never from inside a phase body.
func (s *Sim) Scratch() *Scratch { return &s.scratch }

// SetProcs changes the simulated processor count between phases (it
// re-derives block sizes and Brent charges; the real worker pool is
// unaffected). A reusable solver calls this to re-target one Sim at
// inputs of different sizes.
func (s *Sim) SetProcs(p int) {
	if p < 1 {
		p = 1
	}
	s.procs = p
}

// Workers returns the number of real goroutines used to execute phases
// (including the driving goroutine's own share).
func (s *Sim) Workers() int { return s.workers }

// Close stops the worker pool. It must be called from the driving
// goroutine (so no phase is in flight). After Close the Sim remains
// usable: phases simply execute inline. Close is idempotent, and a Sim
// that is garbage-collected without Close stops its pool through a
// runtime cleanup.
func (s *Sim) Close() {
	s.closed = true
	if s.pool != nil {
		s.cleanup.Stop()
		s.pool.stop()
		s.pool = nil
	}
}

// ensurePool lazily creates the persistent worker pool.
func (s *Sim) ensurePool() *workerPool {
	if s.pool == nil {
		s.pool = newWorkerPool(s.workers - 1) // the driver is a participant
		// Stop the workers if the Sim is dropped without Close. The pool
		// does not reference the Sim (phase bodies are cleared after each
		// superstep), so the cleanup can run.
		s.cleanup = runtime.AddCleanup(s, func(p *workerPool) { p.stop() }, s.pool)
		s.blockBody = func(b int) {
			lo := b * s.blockBS
			hi := min(lo+s.blockBS, s.blockN)
			if lo < hi {
				s.blockFn(b, lo, hi)
			}
		}
	}
	return s.pool
}

// ProcsFor returns the processor count n/ceil(log2 n) prescribed by the
// paper for an input of size n (at least 1).
func ProcsFor(n int) int {
	if n < 2 {
		return 1
	}
	lg := 1
	for v := n - 1; v > 1; v >>= 1 {
		lg++
	}
	p := n / lg
	if p < 1 {
		p = 1
	}
	return p
}

// Procs returns the number of simulated processors.
func (s *Sim) Procs() int { return s.procs }

// Time returns the accumulated parallel time (supersteps).
func (s *Sim) Time() int64 { return s.time }

// Work returns the accumulated work (total operations).
func (s *Sim) Work() int64 { return s.work }

// Phases returns the number of accounting phases issued so far.
func (s *Sim) Phases() int64 { return s.phases }

// Reset zeroes the time, work and phase counters.
func (s *Sim) Reset() { s.time, s.work, s.phases = 0, 0, 0 }

// Stats summarises the counters of a simulation.
type Stats struct {
	Procs  int
	Time   int64
	Work   int64
	Phases int64
}

// Stats returns a snapshot of the counters.
func (s *Sim) Stats() Stats {
	return Stats{Procs: s.procs, Time: s.time, Work: s.work, Phases: s.phases}
}

// String renders the counters in the fixed key=value form the CLI
// -stats output uses.
func (st Stats) String() string {
	return fmt.Sprintf("procs=%d time=%d work=%d phases=%d", st.Procs, st.Time, st.Work, st.Phases)
}

// ceilDiv returns ceil(a/b) for positive b.
func ceilDiv(a, b int) int { return (a + b - 1) / b }

// charge accounts one phase of n unit operations.
func (s *Sim) charge(n, unitCost int) {
	if n <= 0 {
		return
	}
	s.time += int64(ceilDiv(n, s.procs) * unitCost)
	s.work += int64(n * unitCost)
	s.phases++
}

// Charge adds raw time and work to the counters without executing
// anything. It is used for O(1) control decisions between phases.
func (s *Sim) Charge(time, work int64) {
	s.time += time
	s.work += work
	s.phases++
}

// ParallelFor executes f(i) for every i in [0, n) and charges one
// Brent-scheduled phase: time ceil(n/p), work n. The iterations run
// concurrently; f must only perform conflict-free accesses.
func (s *Sim) ParallelFor(n int, f func(i int)) {
	s.ForCost(n, 1, f)
}

// ForCost is ParallelFor for bodies that perform cost elementary PRAM
// operations per iteration: it charges time ceil(n/p)*cost and work
// n*cost.
func (s *Sim) ForCost(n, cost int, f func(i int)) {
	if n <= 0 {
		return
	}
	s.charge(n, cost)
	s.run(n, f)
}

// ParallelForRange is ParallelFor with chunk-granularity bodies: f is
// invoked with disjoint sub-ranges [lo,hi) covering [0,n), letting the
// body amortise the indirect call over a whole chunk. The accounting is
// identical to ParallelFor(n, ...): one Brent-scheduled phase of n unit
// operations. As with ParallelFor, concurrent chunks must only perform
// conflict-free accesses.
func (s *Sim) ParallelForRange(n int, f func(lo, hi int)) {
	s.ForCostRange(n, 1, f)
}

// ForCostRange is ForCost with chunk-granularity bodies (see
// ParallelForRange); it charges time ceil(n/p)*cost and work n*cost.
func (s *Sim) ForCostRange(n, cost int, f func(lo, hi int)) {
	if n <= 0 {
		return
	}
	s.charge(n, cost)
	if !s.dispatchable(n) {
		f(0, n)
		return
	}
	s.ensurePool().dispatchRange(n, f, s.grain)
}

// Blocks partitions [0, n) into p contiguous blocks of size ceil(n/p) and
// executes f(block, lo, hi) for each, charging time ceil(n/p) and work n.
// It expresses the per-processor sequential sweeps of work-optimal PRAM
// algorithms (each simulated processor scans its own block).
func (s *Sim) Blocks(n int, f func(block, lo, hi int)) {
	if n <= 0 {
		return
	}
	bs := ceilDiv(n, s.procs)
	nb := ceilDiv(n, bs)
	s.charge(n, 1)
	// The dispatch decision weighs the total element count n, not the
	// block count: nb blocks of bs elements move n elements of memory.
	if nb < 2 || !s.dispatchable(n) {
		for b := 0; b < nb; b++ {
			lo := b * bs
			hi := min(lo+bs, n)
			if lo < hi {
				f(b, lo, hi)
			}
		}
		return
	}
	s.ensurePool()
	s.blockFn, s.blockBS, s.blockN = f, bs, n
	s.runPool(nb, s.blockBody)
	s.blockFn = nil
}

// BlockSize reports the block size ceil(n/p) used by Blocks for input n.
func (s *Sim) BlockSize(n int) int {
	if n <= 0 {
		return 0
	}
	return ceilDiv(n, s.procs)
}

// NumBlocks reports how many blocks Blocks would create for input n.
func (s *Sim) NumBlocks(n int) int {
	if n <= 0 {
		return 0
	}
	return ceilDiv(n, s.BlockSize(n))
}

// Sequential runs f on a single simulated processor, charging the given
// time cost (and the same amount of work).
func (s *Sim) Sequential(cost int, f func()) {
	if cost > 0 {
		s.time += int64(cost)
		s.work += int64(cost)
		s.phases++
	}
	f()
}

// run executes f(i) for i in [0,n), small phases inline and large ones
// across the persistent worker pool.
func (s *Sim) run(n int, f func(i int)) {
	if !s.dispatchable(n) {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	s.ensurePool().dispatch(n, f, s.grain)
}

// runPool is run for callers that already made the dispatch decision on
// a different quantity than the iteration count (Blocks weighs total
// elements, not blocks). It still falls back to inline execution when
// the pool cannot help at all.
func (s *Sim) runPool(n int, f func(i int)) {
	if s.workers <= 1 || s.closed {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	s.ensurePool().dispatch(n, f, s.grain)
}
