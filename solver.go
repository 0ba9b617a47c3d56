package pathcover

import (
	"fmt"
	"runtime"

	"pathcover/internal/baseline"
	"pathcover/internal/core"
	"pathcover/internal/pram"
)

// Solver is reusable path-cover state: one persistent PRAM worker pool
// plus one scratch arena, amortised across calls. A steady-state
// MinimumPathCover on a Solver performs no goroutine creation and
// recycles every internal buffer of the pipeline, which is the fast path
// for serving many cover queries.
//
// A Solver is not safe for concurrent use; create one per goroutine, or
// use Pool, which owns a host-budgeted shard fleet and is what the
// package-level Graph methods route through internally. The slices
// returned by a Solver's methods live in its arena and stay valid only
// until the next call on the same Solver — copy them (or use the Graph
// methods, which copy) to retain results across calls. Call Close when
// done to stop the worker pool promptly.
type Solver struct {
	cfg config
	sim *pram.Sim

	// Previous call's outputs, recycled at the start of the next call.
	prevCover *core.Cover
	prevSlice []int
}

// NewSolver returns a Solver with the given options. WithProcessors
// fixes the simulated processor count for every call; the default
// derives n/log n from each graph. WithWorkers sets the real worker-pool
// size (default GOMAXPROCS).
func NewSolver(opts ...Option) *Solver {
	cfg := config{algorithm: Parallel, seed: 1}
	for _, o := range opts {
		o(&cfg)
	}
	return &Solver{cfg: cfg}
}

// Close releases the Solver's outputs and stops its worker pool. The
// Solver remains usable afterwards (phases run inline on a fresh pool-
// free Sim path), but results handed out earlier must not be used.
func (sv *Solver) Close() {
	if sv.sim != nil {
		sv.retire()
		sv.sim.Close()
	}
}

// Workers reports the Solver's real worker budget: the WithWorkers
// option when set, GOMAXPROCS otherwise. Pool shards are constructed
// with a pinned budget of GOMAXPROCS divided across the shards.
func (sv *Solver) Workers() int {
	if sv.cfg.workers > 0 {
		return sv.cfg.workers
	}
	return runtime.GOMAXPROCS(0)
}

// Stats reports the simulated PRAM cost of the last parallel run.
func (sv *Solver) Stats() Stats {
	if sv.sim == nil {
		return Stats{}
	}
	return statsOf(sv.sim)
}

// ArenaBytes reports the bytes currently retained in the Solver's
// scratch arena freelists — the solver's standing memory footprint
// between calls. Zero until the first parallel run. Like every Solver
// method it follows the single-goroutine discipline; Pool snapshots it
// under the shard lock after each call, which is how the daemon's
// /metrics endpoint observes it without racing a live solve.
func (sv *Solver) ArenaBytes() int64 {
	if sv.sim == nil {
		return 0
	}
	return sv.sim.Scratch().Bytes()
}

func (sv *Solver) ensureSim() *pram.Sim {
	if sv.sim == nil {
		w := sv.cfg.workers
		if w <= 0 {
			w = runtime.GOMAXPROCS(0)
		}
		sv.sim = pram.New(1, pram.WithWorkers(w))
	}
	return sv.sim
}

// retire recycles the previous call's outputs into the arena.
func (sv *Solver) retire() {
	if sv.prevCover != nil {
		sv.prevCover.Release(sv.sim)
		sv.prevCover = nil
	}
	if sv.prevSlice != nil {
		pram.Release(sv.sim, sv.prevSlice)
		sv.prevSlice = nil
	}
}

// prepare readies the Sim for a run over an n-vertex graph under cfg.
func (sv *Solver) prepare(n int, cfg config) *pram.Sim {
	s := sv.ensureSim()
	sv.retire()
	procs := cfg.procs
	if procs <= 0 {
		procs = pram.ProcsFor(n)
	}
	s.SetProcs(procs)
	s.Reset()
	return s
}

// MinimumPathCover computes a minimum path cover of g, reusing the
// Solver's pool and arena. The returned cover's paths are valid until
// the next call on this Solver.
func (sv *Solver) MinimumPathCover(g *Graph) (*Cover, error) {
	return sv.coverCfg(g, sv.cfg)
}

func (sv *Solver) coverCfg(g *Graph, cfg config) (*Cover, error) {
	route, rg, err := g.resolveBackend(cfg)
	if err != nil {
		return nil, err
	}
	check := cfg.checkFn()
	if route != BackendCograph {
		// Degraded backends allocate plain heap memory; the Solver's
		// arena and worker pool stay untouched.
		return degradedCover(rg, route, check)
	}
	switch cfg.algorithm {
	case Sequential:
		if check != nil {
			if err := check("step1"); err != nil {
				return nil, err
			}
		}
		paths := baseline.Run(g.t)
		return exactCograph(&Cover{Paths: paths, NumPaths: len(paths)}), nil
	case Naive:
		s := sv.prepare(g.N(), cfg)
		if check != nil {
			if err := check("step1"); err != nil {
				return nil, err
			}
		}
		b := g.t.Binarize(s)
		L := b.MakeLeftist(s, cfg.seed)
		paths := baseline.NaiveCover(s, b, L)
		pram.Release(s, L)
		b.Release(s)
		return exactCograph(&Cover{Paths: paths, NumPaths: len(paths), Stats: statsOf(s)}), nil
	default:
		s := sv.prepare(g.N(), cfg)
		cov, err := core.ParallelCover(s, g.t, core.Options{Seed: cfg.seed, Width: cfg.width(), Check: check})
		if err != nil {
			return nil, err
		}
		sv.prevCover = cov
		c := exactCograph(&Cover{Paths: cov.Paths, NumPaths: cov.NumPaths, Stats: statsOf(s)})
		c.arena = true
		return c, nil
	}
}

// width maps the public index-width switch onto the core option (the
// public IndexWidth is an alias of core's, so this is the identity; it
// survives as the single point the mapping would change at).
func (c config) width() core.IndexWidth { return c.idxWidth }

// HamiltonianPath returns a Hamiltonian path of g computed by the
// parallel pipeline, ok=false when none exists, or an error if the
// pipeline failed internally (no silent sequential fallback — use
// Graph.HamiltonianPath for that behaviour). The path is valid until the
// next call on this Solver.
func (sv *Solver) HamiltonianPath(g *Graph) ([]int, bool, error) {
	return sv.hamiltonianPathCfg(g, sv.cfg)
}

func (sv *Solver) hamiltonianPathCfg(g *Graph, cfg config) ([]int, bool, error) {
	if g.t == nil {
		return nil, false, ErrNotCograph
	}
	s := sv.prepare(g.N(), cfg)
	p, ok, err := core.ParallelHamiltonianPath(s, g.t, core.Options{Seed: cfg.seed, Width: cfg.width(), Check: cfg.checkFn()})
	if err != nil {
		return nil, false, fmt.Errorf("pathcover: parallel Hamiltonian path: %w", err)
	}
	sv.prevSlice = p
	return p, ok, nil
}

// HamiltonianCycle returns a Hamiltonian cycle of g computed by the
// parallel pipeline, ok=false when none exists, or an error if the
// pipeline failed internally. The cycle is valid until the next call on
// this Solver.
func (sv *Solver) HamiltonianCycle(g *Graph) ([]int, bool, error) {
	return sv.hamiltonianCycleCfg(g, sv.cfg)
}

func (sv *Solver) hamiltonianCycleCfg(g *Graph, cfg config) ([]int, bool, error) {
	if g.t == nil {
		return nil, false, ErrNotCograph
	}
	s := sv.prepare(g.N(), cfg)
	c, ok, err := core.ParallelHamiltonianCycle(s, g.t, core.Options{Seed: cfg.seed, Width: cfg.width(), Check: cfg.checkFn()})
	if err != nil {
		return nil, false, fmt.Errorf("pathcover: parallel Hamiltonian cycle: %w", err)
	}
	sv.prevSlice = c
	return c, ok, nil
}
