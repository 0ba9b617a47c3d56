package par

import "pathcover/internal/pram"

// BinTreeIx is a binary forest in arena form, generic over the index
// width (see Ix). All three slices have the same length; -1 denotes
// absence. Roots have Parent -1. An internal node may have one or two
// children (path trees are like that); full binary trees (cotrees)
// always have both.
type BinTreeIx[I Ix] struct {
	Left, Right, Parent []I
}

// BinTree is the int-width binary forest, the historical form.
type BinTree = BinTreeIx[int]

// Len returns the number of nodes.
func (t BinTreeIx[I]) Len() int { return len(t.Parent) }

// IsLeaf reports whether v has no children.
func (t BinTreeIx[I]) IsLeaf(v int) bool { return t.Left[v] < 0 && t.Right[v] < 0 }

// NewBinTree allocates an n-node forest with every link empty.
func NewBinTree(n int) BinTree { return NewBinTreeIx[int](n) }

// NewBinTreeIx is the width-generic NewBinTree.
func NewBinTreeIx[I Ix](n int) BinTreeIx[I] {
	t := BinTreeIx[I]{
		Left:   make([]I, n),
		Right:  make([]I, n),
		Parent: make([]I, n),
	}
	for i := 0; i < n; i++ {
		t.Left[i], t.Right[i], t.Parent[i] = -1, -1, -1
	}
	return t
}

// GrabBinTree is NewBinTree with the three link slices drawn from the
// Sim's scratch arena; pair it with ReleaseBinTree.
func GrabBinTree(s *pram.Sim, n int) BinTree { return GrabBinTreeIx[int](s, n) }

// GrabBinTreeIx is the width-generic GrabBinTree.
func GrabBinTreeIx[I Ix](s *pram.Sim, n int) BinTreeIx[I] {
	t := BinTreeIx[I]{
		Left:   pram.GrabNoClear[I](s, n),
		Right:  pram.GrabNoClear[I](s, n),
		Parent: pram.GrabNoClear[I](s, n),
	}
	for i := 0; i < n; i++ {
		t.Left[i], t.Right[i], t.Parent[i] = -1, -1, -1
	}
	return t
}

// ReleaseBinTree returns a forest's link slices to the arena.
func ReleaseBinTree(s *pram.Sim, t BinTree) { ReleaseBinTreeIx(s, t) }

// ReleaseBinTreeIx is the width-generic ReleaseBinTree.
func ReleaseBinTreeIx[I Ix](s *pram.Sim, t BinTreeIx[I]) {
	pram.Release(s, t.Left)
	pram.Release(s, t.Right)
	pram.Release(s, t.Parent)
}

// TourIx is the Euler tour of a binary forest together with the
// numberings derived from it (paper Lemma 5.2), generic over the index
// width. Each node contributes three tour items — pre (first visit), in
// (between the two subtrees) and post (last visit) — and the items of
// all trees are chained root after root in increasing root order.
//
// A tour's slices come from the owning Sim's arena; call Release once
// the tour is no longer needed.
type TourIx[I Ix] struct {
	N   int
	Pos []I // Pos[item] = position of tour item; items are 3v, 3v+1, 3v+2
	Seq []I // Seq[pos] = item at that position (inverse of Pos)

	Pre, In, Post []I // numberings of the nodes, 0-based across the forest
	InSeq         []I // InSeq[k] = node with inorder number k
	Root          []I // root of each node's tree
	Roots         []I // the roots, in increasing index order
}

// Tour is the int-width tour, the historical form.
type Tour = TourIx[int]

// Release returns the tour's slices to the Sim's arena. The tour must
// not be used afterwards.
func (tr *TourIx[I]) Release(s *pram.Sim) {
	pram.Release(s, tr.Pos)
	pram.Release(s, tr.Seq)
	pram.Release(s, tr.Pre)
	pram.Release(s, tr.In)
	pram.Release(s, tr.Post)
	pram.Release(s, tr.InSeq)
	pram.Release(s, tr.Root)
	pram.Release(s, tr.Roots)
	tr.Pos, tr.Seq, tr.Pre, tr.In, tr.Post = nil, nil, nil, nil, nil
	tr.InSeq, tr.Root, tr.Roots = nil, nil, nil
}

// item encoding helpers.
func preItem[I Ix](v I) I   { return 3 * v }
func inItem[I Ix](v I) I    { return 3*v + 1 }
func postItem[I Ix](v I) I  { return 3*v + 2 }
func itemNode[I Ix](it I) I { return it / 3 }

// TourBinary builds the Euler tour of t and the pre/in/post numberings.
// seed drives the randomized work-optimal list ranking.
func TourBinary(s *pram.Sim, t BinTree, seed uint64) *Tour {
	return TourBinaryIx(s, t, seed)
}

// TourBinaryIx is the width-generic TourBinary (see Ix). Note the tour
// stores item ids up to 3n, so the narrow width needs 3n to fit.
func TourBinaryIx[I Ix](s *pram.Sim, t BinTreeIx[I], seed uint64) *TourIx[I] {
	n := t.Len()
	tr := &TourIx[I]{N: n}
	if n == 0 {
		return tr
	}
	if s.PreferSequential(3 * n) {
		// Fused sequential route: build the successor links and walk them
		// once, threading every numbering off the single traversal, then
		// replay the exact charge sequence of the phase-structured build
		// (which is data-dependent only through the list-ranking rounds —
		// see chargeRankOpt).
		tourBuildSeq(s, t, seed, tr)
		return tr
	}

	isRoot := pram.GrabNoClear[bool](s, n)
	s.ParallelForRange(n, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			isRoot[v] = t.Parent[v] < 0
		}
	})
	roots := IndexPackIx[I](s, isRoot)
	pram.Release(s, isRoot)
	tr.Roots = roots

	// Successor links between the 3n items.
	next := pram.GrabNoClear[I](s, 3*n)
	s.ForCostRange(n, 3, func(vlo, vhi int) {
		for vi := vlo; vi < vhi; vi++ {
			v := I(vi)
			// pre(v) -> first of left subtree, else in(v)
			if l := t.Left[vi]; l >= 0 {
				next[preItem(v)] = preItem(l)
			} else {
				next[preItem(v)] = inItem(v)
			}
			// in(v) -> first of right subtree, else post(v)
			if r := t.Right[vi]; r >= 0 {
				next[inItem(v)] = preItem(r)
			} else {
				next[inItem(v)] = postItem(v)
			}
			// post(v) -> in(parent) when v is a left child, post(parent) when
			// right; roots are linked to the next root below.
			p := t.Parent[vi]
			switch {
			case p < 0:
				next[postItem(v)] = -1
			case t.Left[p] == v:
				next[postItem(v)] = inItem(p)
			default:
				next[postItem(v)] = postItem(p)
			}
		}
	})
	// Chain the trees: post(root_k) -> pre(root_{k+1}).
	s.ParallelFor(len(roots), func(k int) {
		if k+1 < len(roots) {
			next[postItem(roots[k])] = preItem(roots[k+1])
		}
	})

	pos, lengthI := ListPositionsIx(s, next, preItem(roots[0]), seed)
	length := int(lengthI)
	pram.Release(s, next)
	tr.Pos = pos
	seq := pram.GrabNoClear[I](s, length)
	s.ParallelForRange(3*n, func(lo, hi int) {
		for it := lo; it < hi; it++ {
			if pos[it] >= 0 {
				seq[pos[it]] = I(it)
			}
		}
	})
	tr.Seq = seq

	// Numberings: rank of each item kind along the sequence.
	kindFlag := func(kind I) []I {
		f := pram.Grab[I](s, length)
		s.ParallelForRange(length, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				if seq[i]%3 == kind {
					f[i] = 1
				}
			}
		})
		r, _ := ScanIx(s, f)
		pram.Release(s, f)
		return r
	}
	preRank := kindFlag(0)
	inRank := kindFlag(1)
	postRank := kindFlag(2)
	tr.Pre = pram.GrabNoClear[I](s, n)
	tr.In = pram.GrabNoClear[I](s, n)
	tr.Post = pram.GrabNoClear[I](s, n)
	tr.InSeq = pram.GrabNoClear[I](s, n)
	s.ForCostRange(n, 3, func(lo, hi int) {
		for vi := lo; vi < hi; vi++ {
			v := I(vi)
			tr.Pre[vi] = preRank[pos[preItem(v)]]
			tr.In[vi] = inRank[pos[inItem(v)]]
			tr.Post[vi] = postRank[pos[postItem(v)]]
		}
	})
	s.ParallelForRange(n, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			tr.InSeq[tr.In[v]] = I(v)
		}
	})
	pram.Release(s, preRank)
	pram.Release(s, inRank)
	pram.Release(s, postRank)

	// Root of each node: roots appear in increasing index order along the
	// tour, so a prefix max over root markers at pre positions works.
	marks := pram.GrabNoClear[I](s, length)
	sentinel := MinIx[I]()
	s.ParallelForRange(length, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			marks[i] = sentinel
		}
	})
	s.ParallelFor(len(roots), func(k int) { marks[pos[preItem(roots[k])]] = roots[k] })
	owner := MaxScanIx(s, marks)
	tr.Root = pram.GrabNoClear[I](s, n)
	s.ParallelForRange(n, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			tr.Root[v] = owner[pos[preItem(I(v))]]
		}
	})
	pram.Release(s, marks)
	pram.Release(s, owner)
	return tr
}

// tourBuildSeq is the fused sequential Euler-tour construction: one
// pass over the links to emit the 3n successor pointers, one walk along
// them filling every numbering, and a charge replay that keeps the
// simulated counters bit-identical to the phase-structured build.
func tourBuildSeq[I Ix](s *pram.Sim, t BinTreeIx[I], seed uint64, tr *TourIx[I]) {
	n := t.Len()
	nr := 0
	for v := 0; v < n; v++ {
		if t.Parent[v] < 0 {
			nr++
		}
	}
	roots := pram.GrabNoClear[I](s, nr)
	j := 0
	for v := 0; v < n; v++ {
		if t.Parent[v] < 0 {
			roots[j] = I(v)
			j++
		}
	}
	tr.Roots = roots
	next := pram.GrabNoClear[I](s, 3*n)
	fillTourLinks(t, roots, next)
	tr.Pos = pram.GrabNoClear[I](s, 3*n)
	tr.Seq = pram.GrabNoClear[I](s, 3*n)
	tr.Pre = pram.GrabNoClear[I](s, n)
	tr.In = pram.GrabNoClear[I](s, n)
	tr.Post = pram.GrabNoClear[I](s, n)
	tr.InSeq = pram.GrabNoClear[I](s, n)
	tr.Root = pram.GrabNoClear[I](s, n)
	tourWalk(t, next, tr)
	replayTourCharges(s, n, nr, next, seed)
	pram.Release(s, next)
}

// fillTourLinks emits the successor pointers of the 3n tour items — the
// sequential mirror of the charged link phase of TourBinaryIx.
func fillTourLinks[I Ix](t BinTreeIx[I], roots []I, next []I) {
	n := t.Len()
	for vi := 0; vi < n; vi++ {
		v := I(vi)
		if l := t.Left[vi]; l >= 0 {
			next[preItem(v)] = preItem(l)
		} else {
			next[preItem(v)] = inItem(v)
		}
		if r := t.Right[vi]; r >= 0 {
			next[inItem(v)] = preItem(r)
		} else {
			next[inItem(v)] = postItem(v)
		}
		p := t.Parent[vi]
		switch {
		case p < 0:
			next[postItem(v)] = -1
		case t.Left[p] == v:
			next[postItem(v)] = inItem(p)
		default:
			next[postItem(v)] = postItem(p)
		}
	}
	for k := 0; k+1 < len(roots); k++ {
		next[postItem(roots[k])] = preItem(roots[k+1])
	}
}

// tourWalk chases the item list once, filling Pos, Seq and all five
// node numberings of tr (whose slices must be pre-sized; tr.Roots must
// be set).
func tourWalk[I Ix](t BinTreeIx[I], next []I, tr *TourIx[I]) {
	var preCnt, inCnt, postCnt, pos I
	curRoot := I(-1)
	total := len(next)
	it := preItem(tr.Roots[0])
	for step := 0; step < total; step++ {
		tr.Pos[it] = pos
		tr.Seq[pos] = it
		v := itemNode(it)
		switch it % 3 {
		case 0:
			if t.Parent[v] < 0 {
				curRoot = v
			}
			tr.Pre[v] = preCnt
			preCnt++
			tr.Root[v] = curRoot
		case 1:
			tr.In[v] = inCnt
			tr.InSeq[inCnt] = v
			inCnt++
		default:
			tr.Post[v] = postCnt
			postCnt++
		}
		pos++
		it = next[it]
	}
}

// replayTourCharges issues the exact simulated charges of a
// phase-structured TourBinaryIx build of an n-node forest with nRoots
// roots and the given item-successor list, which it scrambles in place
// (see chargeRankOpt). It must mirror TourBinaryIx (and the
// ListPositionsIx it calls) charge for charge.
func replayTourCharges[I Ix](s *pram.Sim, n, nRoots int, next []I, seed uint64) {
	p := s.Procs()
	charge := func(m, cost int) {
		if m > 0 {
			s.Charge(int64(ceilDivInt(m, p)*cost), int64(m*cost))
		}
	}
	L := 3 * n
	charge(n, 1)            // isRoot flags
	charge(n, 1)            // IndexPack flags
	chargeScan(s, n, false) // IndexPack position scan
	charge(n, 1)            // IndexPack scatter
	charge(n, 3)            // successor links
	charge(nRoots, 1)       // root chaining
	chargeRankOpt(s, next, seed, true)
	charge(L, 1)             // ListPositions position fill
	charge(L, 1)             // seq scatter
	for k := 0; k < 3; k++ { // pre/in/post rank flags + scans
		charge(L, 1)
		chargeScan(s, L, false)
	}
	charge(n, 3)           // numbering gather
	charge(n, 1)           // InSeq scatter
	charge(L, 1)           // root marks fill
	charge(nRoots, 1)      // root marks scatter
	chargeScan(s, L, true) // owner max-scan
	charge(n, 1)           // root gather
}

// Depths returns the depth of every node (roots have depth 0), via a
// prefix sum of +1 at pre items and -1 at post items. The caller owns
// (and may Release) the result.
func (tr *TourIx[I]) Depths(s *pram.Sim) []I {
	if L := len(tr.Seq); L > 0 && s.PreferSequential(L) {
		// Fused: one walk along the tour with a running depth counter.
		d := pram.GrabNoClear[I](s, tr.N)
		run := I(0)
		for _, it := range tr.Seq {
			switch it % 3 {
			case 0:
				run++
				d[itemNode(it)] = run - 1
			case 2:
				run--
			}
		}
		p := s.Procs()
		s.Charge(int64(ceilDivInt(L, p)), int64(L))       // weight fill
		chargeScan(s, L, true)                            // depth scan
		s.Charge(int64(ceilDivInt(tr.N, p)), int64(tr.N)) // gather
		return d
	}
	w := pram.GrabNoClear[I](s, len(tr.Seq))
	s.ParallelForRange(len(tr.Seq), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			switch tr.Seq[i] % 3 {
			case 0:
				w[i] = 1
			case 2:
				w[i] = -1
			default:
				w[i] = 0
			}
		}
	})
	sums := InclusiveScanIx(s, w)
	d := pram.GrabNoClear[I](s, tr.N)
	s.ParallelForRange(tr.N, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			d[v] = sums[tr.Pos[preItem(I(v))]] - 1
		}
	})
	pram.Release(s, w)
	pram.Release(s, sums)
	return d
}

// SubtreeCounts returns, for every node, the number of nodes and the
// number of leaves in its subtree (inclusive). The caller owns both
// results.
func (tr *TourIx[I]) SubtreeCounts(s *pram.Sim, t BinTreeIx[I]) (size, leaves []I) {
	if L := len(tr.Seq); L > 0 && s.PreferSequential(L) {
		// Fused: running node/leaf counters; each node stashes the counts
		// at its pre item and completes the difference at its post item.
		size = pram.GrabNoClear[I](s, tr.N)
		leaves = pram.GrabNoClear[I](s, tr.N)
		var nodeCnt, leafCnt I
		for _, it := range tr.Seq {
			v := itemNode(it)
			switch it % 3 {
			case 0:
				nodeCnt++
				if t.IsLeaf(int(v)) {
					leafCnt++
				}
				size[v] = 1 - nodeCnt
				leaves[v] = -leafCnt
			case 2:
				size[v] += nodeCnt
				if t.IsLeaf(int(v)) {
					leaves[v] = 1
				} else {
					leaves[v] += leafCnt
				}
			}
		}
		p := s.Procs()
		s.Charge(int64(ceilDivInt(L, p)), int64(L))           // weight fill
		chargeScan(s, L, true)                                // node-count scan
		chargeScan(s, L, true)                                // leaf-count scan
		s.Charge(int64(2*ceilDivInt(tr.N, p)), int64(2*tr.N)) // gather
		return size, leaves
	}
	length := len(tr.Seq)
	nodeW := pram.Grab[I](s, length)
	leafW := pram.Grab[I](s, length)
	s.ParallelForRange(length, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			it := tr.Seq[i]
			if it%3 == 0 {
				v := itemNode(it)
				nodeW[i] = 1
				if t.IsLeaf(int(v)) {
					leafW[i] = 1
				}
			}
		}
	})
	nodeSum := InclusiveScanIx(s, nodeW)
	leafSum := InclusiveScanIx(s, leafW)
	size = pram.GrabNoClear[I](s, tr.N)
	leaves = pram.GrabNoClear[I](s, tr.N)
	s.ForCostRange(tr.N, 2, func(vlo, vhi int) {
		for vi := vlo; vi < vhi; vi++ {
			v := I(vi)
			lo, hi := tr.Pos[preItem(v)], tr.Pos[postItem(v)]
			size[vi] = nodeSum[hi] - nodeSum[lo] + 1
			leaves[vi] = leafSum[hi] - leafSum[lo]
			if t.IsLeaf(vi) {
				leaves[vi] = 1
			}
		}
	})
	pram.Release(s, nodeW)
	pram.Release(s, leafW)
	pram.Release(s, nodeSum)
	pram.Release(s, leafSum)
	return size, leaves
}

// AncestorFlagCounts returns for every node the number of flagged nodes
// on the path from its tree root to the node, inclusive.
func (tr *TourIx[I]) AncestorFlagCounts(s *pram.Sim, flag []bool) []I {
	if L := len(tr.Seq); L > 0 && s.PreferSequential(L) {
		// Fused: running count of open flagged ancestors.
		out := pram.GrabNoClear[I](s, tr.N)
		run := I(0)
		for _, it := range tr.Seq {
			v := itemNode(it)
			switch it % 3 {
			case 0:
				if flag[v] {
					run++
				}
				out[v] = run
			case 2:
				if flag[v] {
					run--
				}
			}
		}
		p := s.Procs()
		s.Charge(int64(ceilDivInt(L, p)), int64(L))       // weight fill
		chargeScan(s, L, true)                            // flag scan
		s.Charge(int64(ceilDivInt(tr.N, p)), int64(tr.N)) // gather
		return out
	}
	length := len(tr.Seq)
	w := pram.Grab[I](s, length)
	s.ParallelForRange(length, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			it := tr.Seq[i]
			v := itemNode(it)
			if flag[v] {
				switch it % 3 {
				case 0:
					w[i] = 1
				case 2:
					w[i] = -1
				}
			}
		}
	})
	sums := InclusiveScanIx(s, w)
	out := pram.GrabNoClear[I](s, tr.N)
	s.ParallelForRange(tr.N, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			out[v] = sums[tr.Pos[preItem(I(v))]]
		}
	})
	pram.Release(s, w)
	pram.Release(s, sums)
	return out
}

// LeafStarts returns, for every node, the number of leaves strictly to
// the left of its subtree in inorder — i.e. the leaf rank of the node's
// leftmost leaf descendant.
func (tr *TourIx[I]) LeafStarts(s *pram.Sim, t BinTreeIx[I]) []I {
	if L := len(tr.Seq); L > 0 && s.PreferSequential(L) {
		// Fused: every node reads the running leaf count at its pre item;
		// leaves bump it at their in item.
		out := pram.GrabNoClear[I](s, tr.N)
		cnt := I(0)
		for _, it := range tr.Seq {
			v := itemNode(it)
			switch it % 3 {
			case 0:
				out[v] = cnt
			case 1:
				if t.IsLeaf(int(v)) {
					cnt++
				}
			}
		}
		p := s.Procs()
		s.Charge(int64(ceilDivInt(L, p)), int64(L))       // flag fill
		chargeScan(s, L, false)                           // leaf-rank scan
		s.Charge(int64(ceilDivInt(tr.N, p)), int64(tr.N)) // gather
		return out
	}
	length := len(tr.Seq)
	w := pram.Grab[I](s, length)
	s.ParallelForRange(length, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			it := tr.Seq[i]
			if it%3 == 1 && t.IsLeaf(int(itemNode(it))) {
				w[i] = 1
			}
		}
	})
	r, _ := ScanIx(s, w)
	out := pram.GrabNoClear[I](s, tr.N)
	s.ParallelForRange(tr.N, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			out[v] = r[tr.Pos[preItem(I(v))]]
		}
	})
	pram.Release(s, w)
	pram.Release(s, r)
	return out
}

// LeafRanks numbers the leaves of the forest 0..m-1 in left-to-right
// (inorder) order; non-leaves get -1. Also returns m.
func (tr *TourIx[I]) LeafRanks(s *pram.Sim, t BinTreeIx[I]) ([]I, int) {
	if L := len(tr.Seq); L > 0 && s.PreferSequential(L) {
		// Fused: number the leaves as their in items stream past.
		out := pram.GrabNoClear[I](s, tr.N)
		m := I(0)
		for _, it := range tr.Seq {
			if it%3 != 1 {
				continue
			}
			v := itemNode(it)
			if t.IsLeaf(int(v)) {
				out[v] = m
				m++
			} else {
				out[v] = -1
			}
		}
		p := s.Procs()
		s.Charge(int64(ceilDivInt(L, p)), int64(L))       // flag fill
		chargeScan(s, L, false)                           // leaf-rank scan
		s.Charge(int64(ceilDivInt(tr.N, p)), int64(tr.N)) // gather
		return out, int(m)
	}
	length := len(tr.Seq)
	w := pram.Grab[I](s, length)
	s.ParallelForRange(length, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			it := tr.Seq[i]
			if it%3 == 1 && t.IsLeaf(int(itemNode(it))) {
				w[i] = 1
			}
		}
	})
	r, m := ScanIx(s, w)
	out := pram.GrabNoClear[I](s, tr.N)
	s.ParallelForRange(tr.N, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			if t.IsLeaf(v) {
				out[v] = r[tr.Pos[inItem(I(v))]]
			} else {
				out[v] = -1
			}
		}
	})
	pram.Release(s, w)
	pram.Release(s, r)
	return out, int(m)
}
