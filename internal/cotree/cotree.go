// Package cotree implements the cotree representation of cographs: the
// unique (up to isomorphism) rooted tree of a complement-reducible graph,
// with 0/1-labelled internal nodes whose labels alternate along every
// root path, at least two children per internal node, and one leaf per
// graph vertex. Two vertices are adjacent exactly when their lowest
// common ancestor is a 1-node (properties (4)-(6) of the paper's §1).
//
// The package provides construction by the defining closure operations
// (single vertex, disjoint union, join, complement), a text format,
// validation, the binarization of the paper's Step 1, the leftist
// reordering of Step 2, and an LCA-based adjacency oracle used for
// verification.
package cotree

import (
	"fmt"
	"math/rand/v2"

	"pathcover/internal/par"
	"pathcover/internal/pram"
)

// Label values for nodes.
const (
	LabelLeaf int8 = -1 // leaf (graph vertex)
	Label0    int8 = 0  // union node
	Label1    int8 = 1  // join node
)

// Tree is a cotree in arena form.
type Tree struct {
	Label    []int8  // per node: Label0, Label1 or LabelLeaf
	Parent   []int   // per node: parent id or -1 for the root
	Children [][]int // per node: child ids in order (empty for leaves)
	Root     int     // root node id
	VertexOf []int   // per node: vertex id for leaves, -1 for internal
	LeafOf   []int   // per vertex: its leaf node id
	Names    []string
}

// NumNodes returns the number of cotree nodes.
func (t *Tree) NumNodes() int { return len(t.Label) }

// NumVertices returns the number of graph vertices (leaves).
func (t *Tree) NumVertices() int { return len(t.LeafOf) }

// Name returns the display name of a vertex.
func (t *Tree) Name(v int) string {
	if v >= 0 && v < len(t.Names) && t.Names[v] != "" {
		return t.Names[v]
	}
	return fmt.Sprintf("v%d", v)
}

// Single returns the cotree of a single-vertex graph.
func Single(name string) *Tree {
	return &Tree{
		Label:    []int8{LabelLeaf},
		Parent:   []int{-1},
		Children: [][]int{nil},
		Root:     0,
		VertexOf: []int{0},
		LeafOf:   []int{0},
		Names:    []string{name},
	}
}

// Union returns the cotree of the disjoint union of the given cographs.
// Children with 0-labelled roots are merged into the new root so the
// result stays canonical (alternating labels, >= 2 children).
func Union(ts ...*Tree) *Tree { return combine(Label0, ts) }

// Join returns the cotree of the join (complete connection) of the given
// cographs, merging 1-labelled roots for canonical form.
func Join(ts ...*Tree) *Tree { return combine(Label1, ts) }

// Complement returns the cotree of the complement graph: internal labels
// flip. A single leaf is self-complementary.
func Complement(t *Tree) *Tree {
	out := t.Clone()
	for i, l := range out.Label {
		switch l {
		case Label0:
			out.Label[i] = Label1
		case Label1:
			out.Label[i] = Label0
		}
	}
	return out
}

// Permute returns a rewritten presentation of the same graph: every
// internal node's child list is shuffled and the vertex numbering is
// permuted, both deterministically in the seed. Names travel with the
// leaves, so the vertex named "x" before is still named "x" after —
// only its id changed. The result is isomorphic to t (identical up to
// relabelling), which makes Permute the generator of choice for
// exercising canonical-identity machinery: Canonicalize(t) and
// Canonicalize(Permute(t, s)) must agree for every s.
func Permute(t *Tree, seed uint64) *Tree {
	rng := rand.New(rand.NewPCG(seed, 0x9e37))
	out := t.Clone()
	for _, ch := range out.Children {
		rng.Shuffle(len(ch), func(i, j int) { ch[i], ch[j] = ch[j], ch[i] })
	}
	nv := t.NumVertices()
	perm := rng.Perm(nv) // perm[old vertex id] = new vertex id
	for u, v := range t.VertexOf {
		if v >= 0 {
			out.VertexOf[u] = perm[v]
		}
	}
	for v := 0; v < nv; v++ {
		out.LeafOf[perm[v]] = t.LeafOf[v]
	}
	if len(out.Names) != nv {
		out.Names = make([]string, nv)
	}
	for v := 0; v < nv; v++ {
		out.Names[perm[v]] = t.Name(v)
	}
	return out
}

// Clone returns a deep copy.
func (t *Tree) Clone() *Tree {
	out := &Tree{
		Label:    append([]int8(nil), t.Label...),
		Parent:   append([]int(nil), t.Parent...),
		Children: make([][]int, len(t.Children)),
		Root:     t.Root,
		VertexOf: append([]int(nil), t.VertexOf...),
		LeafOf:   append([]int(nil), t.LeafOf...),
		Names:    append([]string(nil), t.Names...),
	}
	for i, c := range t.Children {
		out.Children[i] = append([]int(nil), c...)
	}
	return out
}

// combine builds a cotree whose root has the given label over the parts,
// merging parts whose root already carries that label.
func combine(label int8, ts []*Tree) *Tree {
	if len(ts) == 0 {
		panic("cotree: combine of zero trees")
	}
	if len(ts) == 1 {
		return ts[0].Clone()
	}
	out := &Tree{Root: 0}
	out.Label = append(out.Label, label)
	out.Parent = append(out.Parent, -1)
	out.Children = append(out.Children, nil)
	out.VertexOf = append(out.VertexOf, -1)
	for _, t := range ts {
		vertexBase := len(out.LeafOf)
		out.LeafOf = append(out.LeafOf, make([]int, t.NumVertices())...)
		out.Names = append(out.Names, make([]string, t.NumVertices())...)
		base := len(out.Label)
		// Copy all nodes of t; node ids shift by base.
		for i := 0; i < t.NumNodes(); i++ {
			out.Label = append(out.Label, t.Label[i])
			if t.Parent[i] < 0 {
				out.Parent = append(out.Parent, -1) // fixed up below
			} else {
				out.Parent = append(out.Parent, t.Parent[i]+base)
			}
			ch := make([]int, len(t.Children[i]))
			for j, c := range t.Children[i] {
				ch[j] = c + base
			}
			out.Children = append(out.Children, ch)
			if v := t.VertexOf[i]; v >= 0 {
				out.VertexOf = append(out.VertexOf, v+vertexBase)
				out.LeafOf[v+vertexBase] = i + base
				out.Names[v+vertexBase] = t.Name(v)
			} else {
				out.VertexOf = append(out.VertexOf, -1)
			}
		}
		r := t.Root + base
		if t.Label[t.Root] == label {
			// Merge: lift t's root children under the new root.
			for _, c := range t.Children[t.Root] {
				out.Parent[c+base] = 0
				out.Children[0] = append(out.Children[0], c+base)
			}
			// r becomes dead; mark it harmless (it stays allocated but is
			// unreachable; Compact removes it).
			out.Parent[r] = -2
		} else {
			out.Parent[r] = 0
			out.Children[0] = append(out.Children[0], r)
		}
	}
	return out.Compact()
}

// Compact removes unreachable nodes (Parent == -2 markers) and renumbers.
func (t *Tree) Compact() *Tree {
	n := t.NumNodes()
	remap := make([]int, n)
	kept := 0
	for i := 0; i < n; i++ {
		if t.Parent[i] == -2 {
			remap[i] = -1
		} else {
			remap[i] = kept
			kept++
		}
	}
	if kept == n {
		return t
	}
	out := &Tree{
		Label:    make([]int8, kept),
		Parent:   make([]int, kept),
		Children: make([][]int, kept),
		VertexOf: make([]int, kept),
		LeafOf:   make([]int, len(t.LeafOf)),
		Names:    t.Names,
	}
	for i := 0; i < n; i++ {
		j := remap[i]
		if j < 0 {
			continue
		}
		out.Label[j] = t.Label[i]
		if t.Parent[i] < 0 {
			out.Parent[j] = -1
		} else {
			out.Parent[j] = remap[t.Parent[i]]
		}
		for _, c := range t.Children[i] {
			out.Children[j] = append(out.Children[j], remap[c])
		}
		out.VertexOf[j] = t.VertexOf[i]
		if v := t.VertexOf[i]; v >= 0 {
			out.LeafOf[v] = j
		}
	}
	out.Root = remap[t.Root]
	return out
}

// Validate checks the structural invariants of a cotree: a single root,
// consistent parent/child links, at least two children per internal
// node, alternating labels on internal edges, and a consistent
// leaf-vertex bijection.
func (t *Tree) Validate() error {
	n := t.NumNodes()
	if n == 0 {
		return fmt.Errorf("cotree: empty tree")
	}
	if t.Root < 0 || t.Root >= n {
		return fmt.Errorf("cotree: root %d out of range", t.Root)
	}
	if t.Parent[t.Root] != -1 {
		return fmt.Errorf("cotree: root %d has parent %d", t.Root, t.Parent[t.Root])
	}
	seen := 0
	leaves := 0
	for i := 0; i < n; i++ {
		if i != t.Root && (t.Parent[i] < 0 || t.Parent[i] >= n) {
			return fmt.Errorf("cotree: node %d has invalid parent %d", i, t.Parent[i])
		}
		for _, c := range t.Children[i] {
			if c < 0 || c >= n || t.Parent[c] != i {
				return fmt.Errorf("cotree: child link %d->%d inconsistent", i, c)
			}
			seen++
		}
		switch t.Label[i] {
		case LabelLeaf:
			if len(t.Children[i]) != 0 {
				return fmt.Errorf("cotree: leaf %d has children", i)
			}
			if v := t.VertexOf[i]; v < 0 || v >= len(t.LeafOf) || t.LeafOf[v] != i {
				return fmt.Errorf("cotree: leaf %d has bad vertex mapping", i)
			}
			leaves++
		case Label0, Label1:
			if len(t.Children[i]) < 2 {
				return fmt.Errorf("cotree: internal node %d has %d children (property (4) needs >= 2)",
					i, len(t.Children[i]))
			}
			if t.VertexOf[i] != -1 {
				return fmt.Errorf("cotree: internal node %d mapped to vertex %d", i, t.VertexOf[i])
			}
			if p := t.Parent[i]; p >= 0 && t.Label[p] == t.Label[i] {
				return fmt.Errorf("cotree: labels do not alternate on edge %d->%d (property (5))", p, i)
			}
		default:
			return fmt.Errorf("cotree: node %d has invalid label %d", i, t.Label[i])
		}
	}
	if seen != n-1 {
		return fmt.Errorf("cotree: %d child links for %d nodes (not a tree)", seen, n)
	}
	if leaves != len(t.LeafOf) {
		return fmt.Errorf("cotree: %d leaves but %d vertices", leaves, len(t.LeafOf))
	}
	// Reachability from the root (guards against cycles with correct counts).
	mark := make([]bool, n)
	stack := []int{t.Root}
	mark[t.Root] = true
	reached := 0
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		reached++
		for _, c := range t.Children[v] {
			if !mark[c] {
				mark[c] = true
				stack = append(stack, c)
			}
		}
	}
	if reached != n {
		return fmt.Errorf("cotree: only %d of %d nodes reachable from root", reached, n)
	}
	return nil
}

// BinTree is the width-generic binary forest of internal/par, re-aliased
// so BinIx can embed it under the field name the int-width code has
// always used.
type BinTree[I par.Ix] = par.BinTreeIx[I]

// BinIx is a binarized cotree (the paper's Tb(G), or Tbl(G) after
// MakeLeftist), generic over the index width (see par.Ix): every
// internal node has exactly two children; the labels of chain nodes
// introduced by binarization repeat their source node's label, which
// preserves the LCA adjacency semantics.
type BinIx[I par.Ix] struct {
	BinTree[I]
	One      []bool // true for 1-nodes (meaningful on internal nodes)
	VertexOf []I    // node -> vertex (-1 internal)
	LeafOf   []I    // vertex -> node
	Root     int
}

// Bin is the int-width binarized cotree, the historical form.
type Bin = BinIx[int]

// NumNodes returns the node count of the binarized tree.
func (b *BinIx[I]) NumNodes() int { return b.Len() }

// NumVertices returns the vertex count.
func (b *BinIx[I]) NumVertices() int { return len(b.LeafOf) }

// Release returns the binarized tree's slices to the Sim's arena (they
// were drawn from it by Binarize). The Bin must not be used afterwards.
func (b *BinIx[I]) Release(s *pram.Sim) {
	par.ReleaseBinTreeIx(s, b.BinTree)
	pram.Release(s, b.One)
	pram.Release(s, b.VertexOf)
	pram.Release(s, b.LeafOf)
	b.BinTree = BinTree[I]{}
	b.One, b.VertexOf, b.LeafOf = nil, nil, nil
}

// Binarize performs Step 1 of the paper: it replaces every k-ary internal
// node (k >= 3) by a left-leaning chain of k-1 binary nodes carrying the
// same label. The result has n leaves and n-1 internal nodes.
//
// The phase structure is parallel: chain slots are allocated by a prefix
// sum over (k-1) and each new node derives its links in O(1).
func (t *Tree) Binarize(s *pram.Sim) *Bin {
	return BinarizeIx[int](s, t)
}

// BinarizeIx is Binarize onto a chosen index width (see par.Ix): the
// caller guarantees that the binarized tree's 2n-1 node ids — and the 3x
// larger Euler-tour item ids derived from them downstream — fit in I.
// The simulated cost is width-blind.
func BinarizeIx[I par.Ix](s *pram.Sim, t *Tree) *BinIx[I] {
	nOrig := t.NumNodes()
	nv := t.NumVertices()
	if nv == 1 {
		b := &BinIx[I]{BinTree: par.GrabBinTreeIx[I](s, 1), One: pram.Grab[bool](s, 1),
			VertexOf: pram.GrabNoClear[I](s, 1), LeafOf: pram.GrabNoClear[I](s, 1), Root: 0}
		b.VertexOf[0], b.LeafOf[0] = 0, 0
		return b
	}

	// Chain lengths: leaves 0, internal k-1 new nodes.
	chainLen := pram.Grab[I](s, nOrig)
	s.ParallelForRange(nOrig, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			if t.Label[u] != LabelLeaf {
				chainLen[u] = I(len(t.Children[u]) - 1)
			}
		}
	})
	// New ids: vertices keep ids 0..nv-1 (leaf of vertex v is node v);
	// chain nodes follow from nv.
	chainOff, totalChain := scanOffsetIx(s, chainLen, I(nv))
	total := nv + totalChain
	b := &BinIx[I]{
		BinTree:  par.GrabBinTreeIx[I](s, total),
		One:      pram.Grab[bool](s, total),
		VertexOf: pram.GrabNoClear[I](s, total),
		LeafOf:   pram.GrabNoClear[I](s, nv),
		Root:     0,
	}
	s.ParallelForRange(total, func(lo, hi int) {
		for x := lo; x < hi; x++ {
			b.VertexOf[x] = -1
		}
	})
	s.ParallelForRange(nv, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			b.VertexOf[v] = I(v)
			b.LeafOf[v] = I(v)
		}
	})

	// rep(u) = the binarized subtree root for original node u: its leaf
	// id for leaves, the top chain node for internal nodes.
	rep := func(u int) I {
		if t.Label[u] == LabelLeaf {
			return I(t.VertexOf[u])
		}
		return chainOff[u] + chainLen[u] - 1
	}

	// Wire each chain node: chain node j (0-based from the bottom) of
	// original node u has left = previous chain node (or rep of child 0)
	// and right = rep of child j+1.
	owner, slot, _ := par.DistributeIx(s, chainLen)
	s.ForCostRange(totalChain, 2, func(klo, khi int) {
		for k := klo; k < khi; k++ {
			u := int(owner[k])
			j := int(slot[k])
			x := chainOff[u] + I(j)
			b.One[x] = t.Label[u] == Label1
			var l I
			if j == 0 {
				l = rep(t.Children[u][0])
			} else {
				l = x - 1
			}
			r := rep(t.Children[u][j+1])
			b.Left[x] = l
			b.Right[x] = r
			b.Parent[l] = x
			b.Parent[r] = x
		}
	})
	b.Root = int(rep(t.Root))
	pram.Release(s, chainLen)
	pram.Release(s, chainOff)
	pram.Release(s, owner)
	pram.Release(s, slot)
	return b
}

// ScanIntOffset is a prefix sum with a starting base, returning also the
// total (excluding the base).
func ScanIntOffset(s *pram.Sim, in []int, base int) (off []int, total int) {
	return scanOffsetIx(s, in, base)
}

// scanOffsetIx is the width-generic ScanIntOffset.
func scanOffsetIx[I par.Ix](s *pram.Sim, in []I, base I) (off []I, total int) {
	off, totalI := par.ScanIx(s, in)
	s.ParallelForRange(len(off), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			off[i] += base
		}
	})
	return off, int(totalI)
}

// LeafCounts returns L(u) — the number of leaf descendants — for every
// node of the binarized cotree (paper Step 2, via the Euler tour of
// Lemma 5.2).
func (b *BinIx[I]) LeafCounts(s *pram.Sim, seed uint64) []I {
	tour := par.TourBinaryIx(s, b.BinTree, seed)
	size, leaves := tour.SubtreeCounts(s, b.BinTree)
	pram.Release(s, size)
	tour.Release(s)
	return leaves
}

// MakeLeftist swaps children so that L(left) >= L(right) at every
// internal node (the paper's Tbl(G)); child order is immaterial to the
// represented graph. It returns L.
func (b *BinIx[I]) MakeLeftist(s *pram.Sim, seed uint64) []I {
	leaves := b.LeafCounts(s, seed)
	s.ParallelForRange(b.NumNodes(), func(lo, hi int) {
		for u := lo; u < hi; u++ {
			l, r := b.Left[u], b.Right[u]
			if l >= 0 && r >= 0 && leaves[l] < leaves[r] {
				b.Left[u], b.Right[u] = r, l
			}
		}
	})
	return leaves
}

// IsLeftist reports whether L(left) >= L(right) holds everywhere.
func (b *BinIx[I]) IsLeftist(s *pram.Sim, L []I) bool {
	ok := true
	for u := 0; u < b.NumNodes(); u++ {
		l, r := b.Left[u], b.Right[u]
		if l >= 0 && r >= 0 && L[l] < L[r] {
			ok = false
		}
	}
	return ok
}
