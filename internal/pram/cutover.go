package pram

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"
)

// The adaptive sequential cutover.
//
// Dispatching a phase to the worker pool costs a wake/dispatch/join
// round trip regardless of the phase size, and the multi-phase
// block-decomposed structure of the parallel primitives streams each
// array several times where one fused sequential sweep would stream it
// once. Below some input size the sequential route therefore wins on
// wall clock even though the simulated cost model is indifferent.
//
// That crossover is a property of the host (dispatch latency vs memory
// throughput), so it is measured once per process rather than guessed:
// calibrate() times an empty pool round trip and a plain memory sweep
// and derives the element count at which the dispatch overhead is
// amortised. Sims pick the measured value up lazily; WithSeqCutover
// pins an explicit threshold instead (tests use this to force either
// route), and WithGrain keeps its PR-1 meaning of "dispatch anything
// at least this large" by pinning the cutover to the grain.
//
// The cutover changes execution routes only, never accounting: every
// phase charges the same simulated time and work whichever route runs
// it, and the fused primitive bodies in internal/par replay the exact
// charge sequence of their phase-structured counterparts.

// cutoverDisabled pins the threshold below any phase size, forcing the
// dispatch/phase-structured route everywhere (reference for parity
// tests).
const cutoverDisabled = -1

// defaultCutover is used when the host cannot be measured (single
// hardware thread: there is no pool to time, and no parallel speedup to
// lose either, so a generous threshold is safe).
const defaultCutover = 1 << 15

var (
	calibrateOnce sync.Once
	measured      int
)

// cutoverEnv overrides the measured default threshold process-wide. CI
// uses it to force every default-configured Sim onto one route: 0 (or
// any non-positive value) disables the cutover — the phase-structured
// dispatch route everywhere — and a huge value forces the fused
// sequential bodies everywhere. Sims configured with an explicit
// WithSeqCutover or WithGrain are unaffected.
const cutoverEnv = "PATHCOVER_SEQ_CUTOVER"

// autoCutover returns the process-wide measured threshold (or the
// cutoverEnv override).
func autoCutover() int {
	calibrateOnce.Do(func() {
		if c, ok := cutoverFromEnv(); ok {
			measured = c
			return
		}
		measured = calibrate()
	})
	return measured
}

// cutoverFromEnv parses the cutoverEnv override: non-positive values
// disable the cutover (forcing the phase-structured route everywhere),
// positive values pin the threshold.
func cutoverFromEnv() (int, bool) {
	v, ok := os.LookupEnv(cutoverEnv)
	if !ok {
		return 0, false
	}
	c, err := strconv.Atoi(v)
	if err != nil {
		// Fail loudly: a CI job that believes it forced one route while
		// calibration actually picked must not pass silently.
		fmt.Fprintf(os.Stderr, "pram: ignoring malformed %s=%q (%v); using measured cutover\n",
			cutoverEnv, v, err)
		return 0, false
	}
	if c <= 0 {
		c = cutoverDisabled
	}
	return c, true
}

// calibrate measures dispatch latency against memory throughput and
// returns the crossover element count, clamped to a sane range.
func calibrate() int {
	if runtime.GOMAXPROCS(0) <= 1 {
		return defaultCutover
	}
	// Per-element cost of a bandwidth-bound sweep (the shape of every
	// phase body in internal/par).
	buf := make([]int32, 1<<15)
	var sink int32
	sweep := func() {
		acc := int32(0)
		for i := range buf {
			acc += buf[i]
			buf[i] = acc
		}
		sink += acc
	}
	sweep() // warm
	t0 := time.Now()
	const sweeps = 8
	for r := 0; r < sweeps; r++ {
		sweep()
	}
	perElem := float64(time.Since(t0).Nanoseconds()) / float64(sweeps*len(buf))
	_ = sink

	// Round-trip cost of waking the pool for a trivial phase.
	helpers := min(3, runtime.GOMAXPROCS(0)-1)
	pool := newWorkerPool(helpers)
	defer pool.stop()
	noop := func(lo, hi int) {}
	pool.dispatchRange(1<<20, noop, 1) // warm the workers
	t0 = time.Now()
	const trips = 64
	for r := 0; r < trips; r++ {
		pool.dispatchRange(1<<20, noop, 1)
	}
	overhead := float64(time.Since(t0).Nanoseconds()) / trips

	if perElem <= 0 {
		return defaultCutover
	}
	// A phase only pays for its dispatch when the parallel half of the
	// work can hide roughly twice the round trip.
	c := int(2 * overhead / perElem)
	const lo, hi = 1 << 12, 1 << 18
	if c < lo {
		return lo
	}
	if c > hi {
		return hi
	}
	return c
}

// WithSeqCutover pins the sequential-cutover threshold: phases (and the
// fused primitive bodies of internal/par) below c elements run on the
// calling goroutine with no pool dispatch. c <= 0 disables the cutover
// entirely, forcing the phase-structured dispatch route wherever the
// grain allows it. The default is the measured host crossover.
func WithSeqCutover(c int) Option {
	return func(s *Sim) {
		if c <= 0 {
			c = cutoverDisabled
		}
		s.cutover = c
	}
}

// SeqCutover reports the effective sequential-cutover threshold,
// resolving the measured default on first use.
func (s *Sim) SeqCutover() int {
	if s.cutover == 0 {
		s.cutover = autoCutover()
	}
	return s.cutover
}

// PreferSequential reports whether a primitive about to process n
// elements should take its fused single-pass sequential body instead of
// its phase-structured parallel one. It is a pure routing hint: the
// caller must charge the identical simulated time and work either way.
// True whenever no real parallelism is available (one worker, or a
// closed Sim) or n is below the cutover threshold.
func (s *Sim) PreferSequential(n int) bool {
	return s.workers <= 1 || s.closed || n < s.SeqCutover()
}

// dispatchable reports whether a charged phase of n iterations should
// go to the worker pool rather than run inline.
func (s *Sim) dispatchable(n int) bool {
	return s.workers > 1 && !s.closed && n >= s.grain && n >= s.SeqCutover()
}
