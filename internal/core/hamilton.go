package core

import (
	"fmt"

	"pathcover/internal/cotree"
	"pathcover/internal/par"
	"pathcover/internal/pram"
)

// The paper's abstract singles out Hamiltonicity: "our result implies
// that for this class of graphs the task of finding a Hamiltonian path
// can be solved time- and work-optimally in parallel". This file
// provides the parallel Hamiltonian path (a cover of size one) and the
// parallel Hamiltonian cycle: the decision is the join condition
// p(v) <= L(w) at the root (computable by Step 3 alone), and the
// construction splits a parallel cover of G(v) into exactly L(w)
// segments and interleaves the vertices of G(w) around the cycle with
// prefix-sum arithmetic — O(log n) time, O(n) work end to end.
//
// Like ParallelCover, both constructions follow opt.Width: the
// narrowest index kernels (int16, then int32) the input fits, int
// otherwise.

// ParallelHamiltonianPath returns a Hamiltonian path computed by the
// optimal parallel algorithm, or ok=false when none exists. The path is
// drawn from the Sim's arena; the caller owns (and may Release) it.
func ParallelHamiltonianPath(s *pram.Sim, t *cotree.Tree, opt Options) ([]int, bool, error) {
	cov, err := ParallelCover(s, t, opt)
	if err != nil {
		return nil, false, err
	}
	if cov.NumPaths != 1 {
		cov.Release(s)
		return nil, false, nil
	}
	path := pram.GrabNoClear[int](s, len(cov.Paths[0]))
	copy(path, cov.Paths[0])
	cov.Release(s)
	return path, true, nil
}

// ParallelHamiltonianCycle returns a Hamiltonian cycle computed by the
// parallel pipeline, or ok=false when none exists. The cycle is drawn
// from the Sim's arena; the caller owns (and may Release) it.
func ParallelHamiltonianCycle(s *pram.Sim, t *cotree.Tree, opt Options) ([]int, bool, error) {
	w, err := resolveWidth(t.NumVertices(), opt.Width)
	if err != nil {
		return nil, false, err
	}
	switch w {
	case WidthNarrow16:
		return hamCycleIx[int16](s, t, opt)
	case WidthNarrow:
		return hamCycleIx[int32](s, t, opt)
	}
	return hamCycleIx[int](s, t, opt)
}

func hamCycleIx[I par.Ix](s *pram.Sim, t *cotree.Tree, opt Options) ([]int, bool, error) {
	b := cotree.BinarizeIx[I](s, t)
	L := b.MakeLeftist(s, opt.Seed)
	n := b.NumVertices()
	root := b.Root
	release := func() {
		pram.Release(s, L)
		b.Release(s)
	}
	if n < 3 || b.IsLeaf(root) || !b.One[root] {
		release()
		return nil, false, nil
	}
	tour := par.TourBinaryIx(s, b.BinTree, opt.Seed^0x5ca1e)
	p := computePIx(s, b, L, tour)
	v, w := b.Left[root], b.Right[root]
	k := int(L[w])
	pv := p[v]
	pram.Release(s, p)
	if int(pv) > k {
		tour.Release(s)
		release()
		return nil, false, nil
	}

	// Cover G(v) with the parallel algorithm on the extracted subtree.
	sub, toSub, fromSub := extractSubtreeIx(s, b, int(v), tour)
	subL := pram.Grab[I](s, sub.NumNodes())
	s.ParallelForRange(b.NumNodes(), func(lo, hi int) {
		for u := lo; u < hi; u++ {
			if su := toSub[u]; su >= 0 {
				subL[su] = L[u]
			}
		}
	})
	pram.Release(s, toSub)
	cov, err := coverBinIx(s, sub, subL, opt)
	pram.Release(s, subL)
	sub.Release(s)
	if err != nil {
		pram.Release(s, fromSub)
		tour.Release(s)
		release()
		return nil, false, err
	}

	// Flatten the cover: order[] is the concatenation of the paths;
	// pathEnd[j] marks the last vertex of each path.
	nv := int(L[v])
	order := pram.GrabNoClear[I](s, nv)
	pathEnd := pram.GrabNoClear[bool](s, nv)
	lens := pram.GrabNoClear[I](s, len(cov.Paths))
	s.ParallelFor(len(cov.Paths), func(i int) { lens[i] = I(len(cov.Paths[i])) })
	offs, _ := par.ScanIx(s, lens)
	s.ParallelFor(len(cov.Paths), func(i int) {
		for j, sv := range cov.Paths[i] { // cost folded into ForCost below
			order[int(offs[i])+j] = fromSub[sv]
			pathEnd[int(offs[i])+j] = j == len(cov.Paths[i])-1
		}
	})
	s.Charge(0, int64(nv)) // account the copy above
	numPaths := len(cov.Paths)
	cov.Release(s)
	pram.Release(s, fromSub)
	pram.Release(s, lens)
	pram.Release(s, offs)

	// Split into exactly k segments: the p(v) path ends plus the first
	// k - p(v) interior positions become segment ends.
	cuts := I(k - numPaths)
	interior := boolIxs[I](s, pathEnd, true)
	interiorRank, _ := par.ScanIx(s, interior)
	pram.Release(s, interior)
	segEnd := pram.GrabNoClear[bool](s, nv)
	s.ParallelForRange(nv, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			segEnd[j] = pathEnd[j] || interiorRank[j] < cuts
		}
	})
	pram.Release(s, interiorRank)
	// Output index of order[j] = j + (number of segment ends before j);
	// the w vertex after segment i goes right after that segment's end.
	ends := boolIxs[I](s, segEnd, false)
	endsBefore, totalEnds := par.ScanIx(s, ends)
	pram.Release(s, ends)
	if int(totalEnds) != k {
		pram.Release(s, order)
		pram.Release(s, pathEnd)
		pram.Release(s, segEnd)
		pram.Release(s, endsBefore)
		tour.Release(s)
		release()
		return nil, false, fmt.Errorf("core: cycle split produced %d segments, want %d", int(totalEnds), k)
	}
	ws := subtreeLeafVerticesIx(s, b, int(w), tour)
	cycle := pram.GrabNoClear[I](s, n)
	s.ParallelForRange(nv, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			pos := j + int(endsBefore[j])
			cycle[pos] = order[j]
			if segEnd[j] {
				cycle[pos+1] = ws[endsBefore[j]]
			}
		}
	})
	pram.Release(s, order)
	pram.Release(s, pathEnd)
	pram.Release(s, segEnd)
	pram.Release(s, endsBefore)
	pram.Release(s, ws)
	tour.Release(s)
	release()
	return toIntSlice(s, cycle), true, nil
}

// toIntSlice converts an arena-backed narrow result to the int
// representation the public API exposes; the int instantiation is the
// identity. Uncharged, like toIntPaths.
func toIntSlice[I par.Ix](s *pram.Sim, v []I) []int {
	if out, ok := any(v).([]int); ok {
		return out
	}
	out := pram.GrabNoClear[int](s, len(v))
	for i, x := range v {
		out[i] = int(x)
	}
	pram.Release(s, v)
	return out
}

// boolIxs converts a flag slice to 0/1 values; when invert is set the
// flags are negated (1 for false).
func boolIxs[I par.Ix](s *pram.Sim, flags []bool, invert bool) []I {
	out := pram.GrabNoClear[I](s, len(flags))
	s.ParallelForRange(len(flags), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if flags[i] != invert {
				out[i] = 1
			} else {
				out[i] = 0
			}
		}
	})
	return out
}

// ExtractSubtree carves the subtree of node v out of a binarized cotree
// as a self-contained Bin with renumbered nodes and vertices. It returns
// the new tree plus the node mapping old->new (-1 outside the subtree)
// and the vertex mapping new vertex -> old vertex.
func ExtractSubtree(s *pram.Sim, b *cotree.Bin, v int, tour *par.Tour) (*cotree.Bin, []int, []int) {
	return extractSubtreeIx(s, b, v, tour)
}

func extractSubtreeIx[I par.Ix](s *pram.Sim, b *cotree.BinIx[I], v int, tour *par.TourIx[I]) (*cotree.BinIx[I], []I, []I) {
	nn := b.NumNodes()
	inSub := pram.GrabNoClear[bool](s, nn)
	s.ParallelForRange(nn, func(lo, hi int) {
		for x := lo; x < hi; x++ {
			inSub[x] = tour.Pre[v] <= tour.Pre[x] && tour.Post[x] <= tour.Post[v]
		}
	})
	nodes := par.IndexPackIx[I](s, inSub)
	toSub := pram.GrabNoClear[I](s, nn)
	s.ParallelForRange(nn, func(lo, hi int) {
		for x := lo; x < hi; x++ {
			toSub[x] = -1
		}
	})
	s.ParallelFor(len(nodes), func(i int) { toSub[nodes[i]] = I(i) })

	// Vertices: leaves of the subtree, renumbered by leaf order.
	isLeafIn := pram.GrabNoClear[bool](s, nn)
	s.ParallelForRange(nn, func(lo, hi int) {
		for x := lo; x < hi; x++ {
			isLeafIn[x] = inSub[x] && b.IsLeaf(x)
		}
	})
	leaves := par.IndexPackIx[I](s, isLeafIn)
	fromSub := pram.GrabNoClear[I](s, len(leaves))
	vertSub := pram.Grab[I](s, nn) // old node -> new vertex id
	s.ParallelFor(len(leaves), func(i int) {
		fromSub[i] = b.VertexOf[leaves[i]]
		vertSub[leaves[i]] = I(i)
	})

	sub := &cotree.BinIx[I]{
		BinTree:  par.GrabBinTreeIx[I](s, len(nodes)),
		One:      pram.Grab[bool](s, len(nodes)),
		VertexOf: pram.GrabNoClear[I](s, len(nodes)),
		LeafOf:   pram.GrabNoClear[I](s, len(leaves)),
		Root:     int(toSub[v]),
	}
	s.ForCostRange(len(nodes), 2, func(ilo, ihi int) {
		for i := ilo; i < ihi; i++ {
			x := nodes[i]
			sub.One[i] = b.One[x]
			sub.VertexOf[i] = -1
			if l := b.Left[x]; l >= 0 {
				sub.Left[i] = toSub[l]
				sub.Parent[toSub[l]] = I(i)
			}
			if r := b.Right[x]; r >= 0 {
				sub.Right[i] = toSub[r]
				sub.Parent[toSub[r]] = I(i)
			}
			if b.IsLeaf(int(x)) {
				sub.VertexOf[i] = vertSub[x]
				sub.LeafOf[vertSub[x]] = I(i)
			}
		}
	})
	sub.Parent[sub.Root] = -1
	pram.Release(s, inSub)
	pram.Release(s, nodes)
	pram.Release(s, isLeafIn)
	pram.Release(s, leaves)
	pram.Release(s, vertSub)
	return sub, toSub, fromSub
}

// subtreeLeafVerticesIx lists the vertices under node w in leaf order.
func subtreeLeafVerticesIx[I par.Ix](s *pram.Sim, b *cotree.BinIx[I], w int, tour *par.TourIx[I]) []I {
	nn := b.NumNodes()
	flags := pram.GrabNoClear[bool](s, nn)
	s.ParallelForRange(nn, func(lo, hi int) {
		for x := lo; x < hi; x++ {
			flags[x] = b.IsLeaf(x) && tour.Pre[w] <= tour.Pre[x] && tour.Post[x] <= tour.Post[w]
		}
	})
	leaves := par.IndexPackIx[I](s, flags)
	out := pram.GrabNoClear[I](s, len(leaves))
	s.ParallelFor(len(leaves), func(i int) { out[i] = b.VertexOf[leaves[i]] })
	pram.Release(s, flags)
	pram.Release(s, leaves)
	return out
}
