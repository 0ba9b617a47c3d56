package par

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"pathcover/internal/pram"
)

// randomBinForest builds a random binary forest: each node may have 0, 1
// or 2 children.
func randomBinForest(rng *rand.Rand, n, trees int) BinTree {
	t := NewBinTree(n)
	if n == 0 {
		return t
	}
	if trees < 1 {
		trees = 1
	}
	if trees > n {
		trees = n
	}
	// nodes 0..trees-1 are roots; every other node attaches to a random
	// earlier node with a free slot.
	for v := trees; v < n; v++ {
		for {
			p := rng.IntN(v)
			if t.Left[p] < 0 && (rng.IntN(2) == 0 || t.Right[p] >= 0) {
				t.Left[p] = v
				t.Parent[v] = p
				break
			}
			if t.Right[p] < 0 {
				t.Right[p] = v
				t.Parent[v] = p
				break
			}
		}
	}
	return t
}

// serial recursive traversals for verification.
func serialOrders(t BinTree) (pre, in, post []int) {
	n := t.Len()
	pre = make([]int, n)
	in = make([]int, n)
	post = make([]int, n)
	pc, ic, oc := 0, 0, 0
	var walk func(v int)
	walk = func(v int) {
		pre[v] = pc
		pc++
		if t.Left[v] >= 0 {
			walk(t.Left[v])
		}
		in[v] = ic
		ic++
		if t.Right[v] >= 0 {
			walk(t.Right[v])
		}
		post[v] = oc
		oc++
	}
	for v := 0; v < n; v++ {
		if t.Parent[v] < 0 {
			walk(v)
		}
	}
	return pre, in, post
}

func TestTourBinaryMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 14))
	for _, s := range sims() {
		for _, tc := range []struct{ n, trees int }{
			{1, 1}, {2, 1}, {5, 1}, {17, 3}, {200, 1}, {333, 7},
		} {
			bt := randomBinForest(rng, tc.n, tc.trees)
			tour := TourBinary(s, bt, 55)
			wantPre, wantIn, wantPost := serialOrders(bt)
			for v := 0; v < tc.n; v++ {
				if tour.Pre[v] != wantPre[v] || tour.In[v] != wantIn[v] || tour.Post[v] != wantPost[v] {
					t.Fatalf("procs=%d n=%d node %d: (pre,in,post)=(%d,%d,%d) want (%d,%d,%d)",
						s.Procs(), tc.n, v, tour.Pre[v], tour.In[v], tour.Post[v],
						wantPre[v], wantIn[v], wantPost[v])
				}
				if tour.InSeq[tour.In[v]] != v {
					t.Fatalf("InSeq inverse broken at %d", v)
				}
			}
		}
	}
}

func TestTourRootAssignment(t *testing.T) {
	s := pram.New(4, pram.WithGrain(2))
	// Two trees: 0->{2,3}, 1->{4}
	bt := NewBinTree(5)
	bt.Left[0], bt.Right[0] = 2, 3
	bt.Parent[2], bt.Parent[3] = 0, 0
	bt.Left[1] = 4
	bt.Parent[4] = 1
	tour := TourBinary(s, bt, 9)
	want := []int{0, 1, 0, 0, 1}
	for v, r := range want {
		if tour.Root[v] != r {
			t.Fatalf("Root[%d]=%d want %d", v, tour.Root[v], r)
		}
	}
	if len(tour.Roots) != 2 || tour.Roots[0] != 0 || tour.Roots[1] != 1 {
		t.Fatalf("Roots=%v", tour.Roots)
	}
}

func TestDepthsAndSubtreeCounts(t *testing.T) {
	s := pram.New(4, pram.WithGrain(2))
	//        0
	//      /   \
	//     1     2
	//    / \     \
	//   3   4     5
	bt := NewBinTree(6)
	bt.Left[0], bt.Right[0] = 1, 2
	bt.Left[1], bt.Right[1] = 3, 4
	bt.Right[2] = 5
	bt.Parent[1], bt.Parent[2] = 0, 0
	bt.Parent[3], bt.Parent[4] = 1, 1
	bt.Parent[5] = 2
	tour := TourBinary(s, bt, 1)
	d := tour.Depths(s)
	wantD := []int{0, 1, 1, 2, 2, 2}
	for v := range wantD {
		if d[v] != wantD[v] {
			t.Fatalf("depth[%d]=%d want %d", v, d[v], wantD[v])
		}
	}
	size, leaves := tour.SubtreeCounts(s, bt)
	wantSize := []int{6, 3, 2, 1, 1, 1}
	wantLeaves := []int{3, 2, 1, 1, 1, 1}
	for v := range wantSize {
		if size[v] != wantSize[v] || leaves[v] != wantLeaves[v] {
			t.Fatalf("node %d: size=%d leaves=%d want %d/%d",
				v, size[v], leaves[v], wantSize[v], wantLeaves[v])
		}
	}
}

func TestAncestorFlagCounts(t *testing.T) {
	s := pram.New(3, pram.WithGrain(2))
	// chain 0 -> 1 -> 2 -> 3 (all left children), flags on 0 and 2.
	bt := NewBinTree(4)
	for v := 0; v < 3; v++ {
		bt.Left[v] = v + 1
		bt.Parent[v+1] = v
	}
	tour := TourBinary(s, bt, 2)
	flags := []bool{true, false, true, false}
	got := tour.AncestorFlagCounts(s, flags)
	want := []int{1, 1, 2, 2}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("flagcount[%d]=%d want %d", v, got[v], want[v])
		}
	}
}

func TestLeafRanks(t *testing.T) {
	s := pram.New(4, pram.WithGrain(2))
	bt := NewBinTree(7) // full binary tree, leaves 3,4,5,6
	bt.Left[0], bt.Right[0] = 1, 2
	bt.Left[1], bt.Right[1] = 3, 4
	bt.Left[2], bt.Right[2] = 5, 6
	for _, v := range []int{1, 2} {
		bt.Parent[v] = 0
	}
	bt.Parent[3], bt.Parent[4], bt.Parent[5], bt.Parent[6] = 1, 1, 2, 2
	tour := TourBinary(s, bt, 3)
	ranks, m := tour.LeafRanks(s, bt)
	if m != 4 {
		t.Fatalf("m=%d want 4", m)
	}
	want := []int{-1, -1, -1, 0, 1, 2, 3}
	for v := range want {
		if ranks[v] != want[v] {
			t.Fatalf("leafRank[%d]=%d want %d", v, ranks[v], want[v])
		}
	}
}

func TestTourProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint16, trees uint8, procs uint8) bool {
		n := int(nRaw%400) + 1
		rng := rand.New(rand.NewPCG(seed, 21))
		bt := randomBinForest(rng, n, 1+int(trees%4))
		s := pram.New(1+int(procs%12), pram.WithGrain(16))
		tour := TourBinary(s, bt, seed)
		pre, in, post := serialOrders(bt)
		for v := 0; v < n; v++ {
			if tour.Pre[v] != pre[v] || tour.In[v] != in[v] || tour.Post[v] != post[v] {
				return false
			}
		}
		// Subtree counts must match a serial count.
		size, leaves := tour.SubtreeCounts(s, bt)
		var count func(v int) (int, int)
		count = func(v int) (int, int) {
			sz, lf := 1, 0
			if bt.IsLeaf(v) {
				lf = 1
			}
			if bt.Left[v] >= 0 {
				a, b := count(bt.Left[v])
				sz += a
				lf += b
			}
			if bt.Right[v] >= 0 {
				a, b := count(bt.Right[v])
				sz += a
				lf += b
			}
			return sz, lf
		}
		for v := 0; v < n; v++ {
			if bt.Parent[v] < 0 {
				// verified transitively for all nodes via the recursion
				sz, lf := count(v)
				if size[v] != sz || leaves[v] != lf {
					return false
				}
			}
			szv, lfv := count(v)
			if size[v] != szv || leaves[v] != lfv {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestTourCostBounds(t *testing.T) {
	// Euler tour numbering with p = n/log n processors is O(log n) time
	// and O(n) work: quadrupling n must scale time by ~log(4n)/log(n)
	// (far below 4x) and work by ~4x (far below the 4*log-factor Wyllie
	// would show).
	rng := rand.New(rand.NewPCG(8, 8))
	measure := func(n int) (int64, int64) {
		bt := randomBinForest(rng, n, 1)
		s := pram.New(pram.ProcsFor(n), pram.WithGrain(1<<30))
		TourBinary(s, bt, 4)
		return s.Time(), s.Work()
	}
	t1, w1 := measure(1 << 12)
	t2, w2 := measure(1 << 14)
	if ratio := float64(t2) / float64(t1); ratio > 2.0 {
		t.Errorf("time scaled %.2fx for 4x input; want ~log ratio (<2x)", ratio)
	}
	if ratio := float64(w2) / float64(w1); ratio > 5.5 {
		t.Errorf("work scaled %.2fx for 4x input; want ~4x", ratio)
	}
}

// The tour-reuse suite: a tour built on a Sim that has already built
// and released tours, with the forest changed between builds as the
// pipeline changes it, must equal a build on a fresh Sim, in values and
// in counters, whatever buffers the arena hands back. The tests keep
// the names of the per-Sim tour cache whose reuse routes they covered;
// each route is now a fresh build.

// rebuildOnReusedSim builds the tour of a random forest once per seed
// on one debug-arena Sim, on both routes, calling mutate (if any) on
// the forest before each build, and checks every build against a build
// on a fresh Sim.
func rebuildOnReusedSim(t *testing.T, rng *rand.Rand, seeds []uint64, mutate func(round int, forest BinTree)) {
	t.Helper()
	for _, mk := range []func(int) *pram.Sim{fusedSim, refSim} {
		for _, n := range []int{5, 120, 900} {
			forest := randomForest(rng, n)
			procs := pram.ProcsFor(n)
			s := mk(procs)
			s.Scratch().SetDebug(true)
			for round, seed := range seeds {
				if mutate != nil {
					mutate(round, forest)
				}
				before := s.Stats()
				got := TourBinary(s, forest, seed)
				ref := mk(procs)
				want := TourBinary(ref, forest, seed)
				what := fmt.Sprintf("n=%d round %d", n, round)
				for _, c := range [][2][]int{{got.Pos, want.Pos}, {got.Seq, want.Seq},
					{got.Pre, want.Pre}, {got.In, want.In}, {got.Post, want.Post},
					{got.InSeq, want.InSeq}, {got.Root, want.Root}, {got.Roots, want.Roots}} {
					intsEq(t, what, c[0], c[1])
				}
				after := s.Stats()
				delta := pram.Stats{Time: after.Time - before.Time,
					Work: after.Work - before.Work, Phases: after.Phases - before.Phases}
				statsEq(t, what, n, procs, delta, ref.Stats())
				got.Release(s)
				want.Release(ref)
				ref.Close()
			}
			s.Close()
		}
	}
}

// TestTourCacheReuse rebuilds the tour of an unchanged forest under
// repeated and changing seeds.
func TestTourCacheReuse(t *testing.T) {
	rebuildOnReusedSim(t, rand.New(rand.NewPCG(77, 3)), []uint64{9, 9, 40, 9, 40, 40}, nil)
}

// TestTourCachePatchSwap swaps the positions of leaf pairs before each
// rebuild, as each Step 6 exchange round does.
func TestTourCachePatchSwap(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 44))
	rebuildOnReusedSim(t, rng, []uint64{5, 12, 12, 30}, func(round int, forest BinTree) {
		if round == 0 {
			return
		}
		n := len(forest.Parent)
		for sw := 0; sw < 5; sw++ {
			x, y := rng.IntN(n), rng.IntN(n)
			if x != y && forest.IsLeaf(x) && forest.IsLeaf(y) &&
				forest.Parent[x] >= 0 && forest.Parent[y] >= 0 {
				swapLeafPositions(forest, x, y)
			}
		}
	})
}

// TestTourCacheTouch flips the children of random nodes before each
// rebuild, as MakeLeftist does.
func TestTourCacheTouch(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 66))
	rebuildOnReusedSim(t, rng, []uint64{1, 2, 2}, func(round int, forest BinTree) {
		if round == 0 {
			return
		}
		for v := range forest.Left {
			if rng.IntN(2) == 0 {
				forest.Left[v], forest.Right[v] = forest.Right[v], forest.Left[v]
			}
		}
	})
}

// swapLeafPositions exchanges the tree positions of the leaves x and y,
// as Step 6 exchanges an insert with a dummy.
func swapLeafPositions(t BinTree, x, y int) {
	px, py := t.Parent[x], t.Parent[y]
	xLeft, yLeft := t.Left[px] == x, t.Left[py] == y
	if xLeft {
		t.Left[px] = y
	} else {
		t.Right[px] = y
	}
	if yLeft {
		t.Left[py] = x
	} else {
		t.Right[py] = x
	}
	t.Parent[x], t.Parent[y] = py, px
}
