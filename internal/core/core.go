// Package core implements the primary contribution of Nakano, Olariu and
// Zomaya: the time- and work-optimal EREW algorithm that reports all
// paths of a minimum path cover of a cograph in O(log n) time with
// n/log n processors (Theorem 5.3).
//
// The pipeline follows §5 of the paper:
//
//	Step 1  binarize the cotree                    (cotree.Binarize)
//	Step 2  leaf counts + leftist reorder          (cotree.MakeLeftist)
//	Step 3  p(u) by tree contraction; reduction    (ComputeP, Reduce)
//	Step 4  bracket sequence B(R)                  (GenBrackets)
//	Step 5  bracket matching -> pseudo path trees  (BuildPseudo)
//	Step 6  exchange illegal inserts with dummies  (FixIllegal)
//	Step 7  bypass dummy vertices                  (Bypass)
//	Step 8  paths by Euler-tour inorder            (ExtractPaths)
//
// All phases run on the pram.Sim cost model through the primitives of
// internal/par, so the simulated time/work counters measure the paper's
// bounds directly.
package core

import (
	"fmt"
	"math"
	"time"

	"pathcover/internal/cotree"
	"pathcover/internal/par"
	"pathcover/internal/pram"
)

// Role classifies the vertices of the reduced cotree Tblr (paper §2):
// primary vertices keep their path-tree structure; bridge vertices glue
// path trees together at a 1-node; insert vertices are spliced into path
// trees as leaves; dummy vertices are placeholders added in Step 4 and
// removed in Step 7.
type Role uint8

// The vertex roles of the dummy-augmented pipeline.
const (
	RolePrimary Role = iota // an input vertex of the graph
	RoleBridge  Role = iota // joins two pseudo paths at a join node
	RoleInsert  Role = iota // an insertion point awaiting an exchange
	RoleDummy   Role = iota // placeholder bypassed in Step 7
)

// String renders the role for traces and test failures.
func (r Role) String() string {
	switch r {
	case RolePrimary:
		return "primary"
	case RoleBridge:
		return "bridge"
	case RoleInsert:
		return "insert"
	case RoleDummy:
		return "dummy"
	}
	return fmt.Sprintf("Role(%d)", uint8(r))
}

// Cover is the result of the parallel minimum path cover computation.
//
// The paths of a cover produced by ParallelCover share one backing
// buffer drawn from the Sim's scratch arena; call Release to recycle it
// (after which the paths must not be read), or keep the Cover alive and
// let the buffers become garbage.
type Cover struct {
	Paths    [][]int    // vertex-disjoint paths covering all vertices
	NumPaths int        // == p(root), the provable minimum
	Stats    pram.Stats // simulated PRAM cost of the run

	seq      []int // shared backing of Paths (nil for trivial covers)
	released bool  // set by Release; makes double-release a no-op
}

// Release returns the cover's path storage to the Sim's arena. It is
// idempotent and nil-receiver-safe: releasing the same Cover twice (or
// releasing a nil Cover) is a no-op rather than handing the same buffer
// to the arena a second time.
func (c *Cover) Release(s *pram.Sim) {
	if c == nil || c.released {
		return
	}
	c.released = true
	pram.Release(s, c.seq)
	pram.Release(s, c.Paths)
	c.seq, c.Paths = nil, nil
}

// IndexWidth selects the element width of the pipeline's index arrays.
type IndexWidth uint8

const (
	// WidthAuto picks the narrowest kernels every derived index fits —
	// int16, then int32, then int (the default).
	WidthAuto IndexWidth = iota
	// WidthNarrow forces the int32 kernels (the caller guarantees the
	// input is small enough; ParallelCover rejects inputs past the
	// narrow bound rather than truncate).
	WidthNarrow
	// WidthWide forces the int kernels.
	WidthWide
	// WidthNarrow16 forces the int16 kernels, with the same
	// force/reject semantics as WidthNarrow: inputs past
	// MaxInt16Vertices are rejected rather than truncated.
	WidthNarrow16
)

// String renders the width tier ("auto", "int16", "int32", "int").
func (w IndexWidth) String() string {
	switch w {
	case WidthAuto:
		return "auto"
	case WidthNarrow16:
		return "int16"
	case WidthNarrow:
		return "int32"
	case WidthWide:
		return "int"
	}
	return fmt.Sprintf("IndexWidth(%d)", uint8(w))
}

// MaxNarrowVertices is the largest vertex count the int32 pipeline
// accepts. The binding constraint is not n itself but the largest id the
// pipeline ever stores in a narrow cell: the dummy-augmented pseudo
// forest has up to 3n-2 nodes, its Euler tour 3x that many items, and
// the weighted list ranks over the tour sum to its length — all bounded
// by 10n with room to spare, hence the /10.
const MaxNarrowVertices = (math.MaxInt32 - 64) / 10

// MaxInt16Vertices is the largest vertex count the int16 pipeline
// accepts, derived from the same 10n bound on the largest value any
// pipeline cell holds (see MaxNarrowVertices). Small — 3270 — but the
// serving size distribution is dominated by graphs under it, and those
// requests stream a quarter of the bytes the int kernels would.
const MaxInt16Vertices = (math.MaxInt16 - 64) / 10

// fitsNarrow reports whether an n-vertex cover can run on the int32
// kernels without any derived value overflowing.
func fitsNarrow(n int) bool { return n <= MaxNarrowVertices }

// fitsNarrow16 reports whether an n-vertex cover can run on the int16
// kernels without any derived value overflowing.
func fitsNarrow16(n int) bool { return n <= MaxInt16Vertices }

// maxVerticesFor returns the vertex bound of a forceable narrow width
// (0 for widths without one).
func maxVerticesFor(w IndexWidth) int {
	switch w {
	case WidthNarrow16:
		return MaxInt16Vertices
	case WidthNarrow:
		return MaxNarrowVertices
	}
	return 0
}

// WidthError reports a forced narrow index width the input does not fit:
// the caller demanded kernels whose cells cannot hold every value an
// n-vertex run derives, and the pipeline rejects rather than truncates.
type WidthError struct {
	N     int        // vertices in the rejected input
	Max   int        // largest vertex count Width accepts
	Width IndexWidth // the forced width that rejected
}

// Error describes the rejected input and the bound it exceeded.
func (e *WidthError) Error() string {
	return fmt.Sprintf("core: %d vertices exceed the %s-index bound %d", e.N, e.Width, e.Max)
}

// AutoWidth reports the width WidthAuto resolves to for an n-vertex
// input: the narrowest kernels every derived value fits.
func AutoWidth(n int) IndexWidth {
	switch {
	case fitsNarrow16(n):
		return WidthNarrow16
	case fitsNarrow(n):
		return WidthNarrow
	}
	return WidthWide
}

// Options tune the pipeline (mostly for tests and experiments).
type Options struct {
	Seed         uint64     // randomization seed for list ranking
	WithoutDummy bool       // skip dummy vertices (Fig. 9/10 demonstrations only: produces pseudo path trees that may be invalid)
	SkipFix      bool       // skip Step 6 (for observing illegal inserts)
	Width        IndexWidth // index-array element width (default WidthAuto)
	Trace        *StepTrace // when non-nil, per-step simulated costs are recorded
	// Check, when non-nil, runs before every pipeline step ("step1"
	// through "step8"): a non-nil return aborts the run with that error
	// (per-request deadlines), and the hook may panic or stall (fault
	// injection). It runs on the host outside the cost model, so the
	// simulated counters are identical with or without it.
	Check func(step string) error
}

// checkStep invokes the between-step hook; a nil hook never aborts.
func (o *Options) checkStep(step string) error {
	if o.Check == nil {
		return nil
	}
	return o.Check(step)
}

// StepTrace records the cost of each pipeline step — the phase
// breakdown behind the E4 totals — on both axes: the simulated PRAM
// time/work counters and the host wall clock, so hot steps are
// attributable in benchmark snapshots.
type StepTrace struct {
	Names []string
	Time  []int64
	Work  []int64
	Wall  []time.Duration

	prev time.Time // wall-clock start of the step being accumulated
}

// start anchors the wall clock of the first step; later adds re-anchor
// themselves. Idempotent so nested pipeline entry points can both call
// it.
func (tr *StepTrace) start() {
	if tr != nil && tr.prev.IsZero() {
		tr.prev = time.Now()
	}
}

func (tr *StepTrace) add(s *pram.Sim, name string, t0, w0 int64) (int64, int64) {
	t1, w1 := s.Time(), s.Work()
	if tr != nil {
		now := time.Now()
		if tr.prev.IsZero() {
			tr.prev = now
		}
		tr.Names = append(tr.Names, name)
		tr.Time = append(tr.Time, t1-t0)
		tr.Work = append(tr.Work, w1-w0)
		tr.Wall = append(tr.Wall, now.Sub(tr.prev))
		tr.prev = now
	}
	return t1, w1
}

// String renders the trace as an aligned table.
func (tr *StepTrace) String() string {
	out := fmt.Sprintf("%-28s %12s %14s %12s\n", "step", "simtime", "simwork", "wall ms")
	for i := range tr.Names {
		out += fmt.Sprintf("%-28s %12d %14d %12.3f\n",
			tr.Names[i], tr.Time[i], tr.Work[i], float64(tr.Wall[i].Nanoseconds())/1e6)
	}
	return out
}

// ParallelCover runs the full pipeline on a cotree. The number of
// simulated processors (and the goroutine parallelism) comes from s.
//
// The index width follows opt.Width: by default the whole pipeline —
// binarization through path extraction — runs on the narrowest index
// arrays the input fits (int16 up to MaxInt16Vertices, int32 up to
// MaxNarrowVertices, int beyond), quartering or halving the bytes every
// bandwidth-bound phase streams. All widths produce identical covers
// and identical simulated cost counters.
func ParallelCover(s *pram.Sim, t *cotree.Tree, opt Options) (*Cover, error) {
	w, err := resolveWidth(t.NumVertices(), opt.Width)
	if err != nil {
		return nil, err
	}
	switch w {
	case WidthNarrow16:
		return parallelCoverIx[int16](s, t, opt)
	case WidthNarrow:
		return parallelCoverIx[int32](s, t, opt)
	}
	return parallelCoverIx[int](s, t, opt)
}

// resolveWidth maps the requested index width onto a concrete route
// (WidthNarrow16, WidthNarrow or WidthWide) for an n-vertex input,
// rejecting a forced-narrow request the kernels cannot hold with a
// *WidthError rather than truncating.
func resolveWidth(n int, w IndexWidth) (IndexWidth, error) {
	switch w {
	case WidthNarrow16, WidthNarrow:
		if max := maxVerticesFor(w); n > max {
			return WidthWide, &WidthError{N: n, Max: max, Width: w}
		}
		return w, nil
	case WidthWide:
		return WidthWide, nil
	}
	return AutoWidth(n), nil
}

func parallelCoverIx[I par.Ix](s *pram.Sim, t *cotree.Tree, opt Options) (*Cover, error) {
	opt.Trace.start()
	if err := opt.checkStep("step1"); err != nil {
		return nil, err
	}
	t0, w0 := s.Time(), s.Work()
	b := cotree.BinarizeIx[I](s, t) // Step 1
	t0, w0 = opt.Trace.add(s, "1 binarize", t0, w0)
	if err := opt.checkStep("step2"); err != nil {
		b.Release(s)
		return nil, err
	}
	L := b.MakeLeftist(s, opt.Seed) // Step 2
	opt.Trace.add(s, "2 leaf counts + leftist", t0, w0)
	cov, err := coverBinIx(s, b, L, opt)
	pram.Release(s, L)
	b.Release(s)
	return cov, err
}

// ParallelCoverBin runs Steps 3-8 on an already leftist binarized cotree.
func ParallelCoverBin(s *pram.Sim, b *cotree.Bin, L []int, opt Options) (*Cover, error) {
	return coverBinIx(s, b, L, opt)
}

func coverBinIx[I par.Ix](s *pram.Sim, b *cotree.BinIx[I], L []I, opt Options) (*Cover, error) {
	opt.Trace.start()
	n := b.NumVertices()
	if n == 1 {
		return &Cover{Paths: [][]int{{0}}, NumPaths: 1, Stats: s.Stats()}, nil
	}
	if err := opt.checkStep("step3"); err != nil {
		return nil, err
	}
	t0, w0 := s.Time(), s.Work()
	tour := par.TourBinaryIx(s, b.BinTree, opt.Seed^0x9e37)
	t0, w0 = opt.Trace.add(s, "3a euler tour", t0, w0)
	p := computePIx(s, b, L, tour) // Step 3 (Lemma 2.4)
	t0, w0 = opt.Trace.add(s, "3b p(u) contraction", t0, w0)
	red := reduceIx(s, b, L, p, tour)
	t0, w0 = opt.Trace.add(s, "3c reduction", t0, w0)
	tour.Release(s)
	if err := opt.checkStep("step4"); err != nil {
		red.Release(s)
		return nil, err
	}
	seq := genBracketsIx(s, b, red, !opt.WithoutDummy) // Step 4
	t0, w0 = opt.Trace.add(s, "4 bracket generation", t0, w0)
	if err := opt.checkStep("step5"); err != nil {
		seq.Release(s)
		red.Release(s)
		return nil, err
	}
	ps, err := buildPseudoIx(s, n, red, seq) // Step 5
	seq.Release(s)
	if err != nil {
		red.Release(s)
		return nil, err
	}
	t0, w0 = opt.Trace.add(s, "5 matching + pseudo trees", t0, w0)
	if err := opt.checkStep("step6"); err != nil {
		red.Release(s)
		ps.Release(s)
		return nil, err
	}
	if !opt.SkipFix && !opt.WithoutDummy {
		if _, err := fixIllegalIx(s, ps, red, opt.Seed^0xabcd); err != nil {
			red.Release(s)
			ps.Release(s)
			return nil, err
		}
	}
	t0, w0 = opt.Trace.add(s, "6 illegal-insert exchange", t0, w0)
	if err := opt.checkStep("step7"); err != nil {
		red.Release(s)
		ps.Release(s)
		return nil, err
	}
	final := bypassIx(s, ps, red, opt.Seed^0x1234) // Step 7
	t0, w0 = opt.Trace.add(s, "7 dummy bypass", t0, w0)
	ps.Release(s)
	pRoot := int(p[b.Root])
	red.Release(s) // red.P aliases p; released here
	if err := opt.checkStep("step8"); err != nil {
		par.ReleaseBinTreeIx(s, final)
		return nil, err
	}
	pathsIx, backingIx := extractPathsIx(s, final, opt.Seed^0x7777) // Step 8
	opt.Trace.add(s, "8 extract paths", t0, w0)
	par.ReleaseBinTreeIx(s, final)
	if len(pathsIx) != pRoot {
		pram.Release(s, backingIx)
		pram.Release(s, pathsIx)
		return nil, fmt.Errorf("core: produced %d paths, p(root)=%d", len(pathsIx), pRoot)
	}
	paths, seqBacking := toIntPaths(s, pathsIx, backingIx)
	return &Cover{Paths: paths, NumPaths: len(paths), Stats: s.Stats(), seq: seqBacking}, nil
}

// toIntPaths converts the arena-backed paths of a narrow run to the int
// representation the Cover type exposes; the int instantiation is the
// identity. The conversion is a host-level representation change (one
// pass over n elements), not a simulated phase, so it charges nothing.
func toIntPaths[I par.Ix](s *pram.Sim, pathsIx [][]I, backing []I) ([][]int, []int) {
	if p, ok := any(pathsIx).([][]int); ok {
		return p, any(backing).([]int)
	}
	seq := pram.GrabNoClear[int](s, len(backing))
	for i, v := range backing {
		seq[i] = int(v)
	}
	paths := pram.GrabNoClear[[]int](s, len(pathsIx))
	off := 0
	for i, p := range pathsIx {
		paths[i] = seq[off : off+len(p)]
		off += len(p)
	}
	pram.Release(s, backing)
	pram.Release(s, pathsIx)
	return paths, seq
}

// ComputeP evaluates the Lin et al. recurrence (Lemma 2.4)
//
//	p(leaf)   = 1
//	p(0-node) = p(left) + p(right)
//	p(1-node) = max(p(left) - L(right), 1)
//
// for every node of the leftist binarized cotree by parallel tree
// contraction in O(log n) time and O(n) work.
func ComputeP(s *pram.Sim, b *cotree.Bin, L []int, tour *par.Tour) []int {
	return computePIx(s, b, L, tour)
}

func computePIx[I par.Ix](s *pram.Sim, b *cotree.BinIx[I], L []I, tour *par.TourIx[I]) []I {
	nn := b.NumNodes()
	op := pram.Grab[par.NodeOp](s, nn)
	leafVal := pram.Grab[int64](s, nn)
	s.ParallelForRange(nn, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			if b.IsLeaf(u) {
				leafVal[u] = 1
			} else if b.One[u] {
				op[u] = par.NodeOp{Kind: par.OpJoinClamp, C: int64(L[b.Right[u]])}
			} else {
				op[u] = par.NodeOp{Kind: par.OpSum}
			}
		}
	})
	ranks, _ := tour.LeafRanks(s, b.BinTree)
	vals := par.EvalTreeIx(s, b.BinTree, op, leafVal, ranks)
	p := pram.GrabNoClear[I](s, nn)
	s.ParallelForRange(nn, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			p[u] = I(vals[u])
		}
	})
	pram.Release(s, op)
	pram.Release(s, leafVal)
	pram.Release(s, ranks)
	pram.Release(s, vals)
	return p
}
