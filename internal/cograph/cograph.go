// Package cograph turns explicit graphs into cotrees. NewAdjacency
// sorts and deduplicates an edge list on vertices 0..n-1 into adjacency
// lists, and RecognizeAdjacency builds the cotree from them or reports
// an induced P4. Both run in O(n + m) time and memory; no step is
// quadratic in n.
//
// Recognition is the incremental algorithm of Corneil, Perl and
// Stewart ("A linear recognition algorithm for cographs", SIAM J.
// Comput. 14(4), 1985). Vertices join the cotree in index order. For
// each vertex x, the nodes whose leaves are all adjacent to x are
// found bottom-up from x's earlier neighbours. The nodes only partly
// adjacent to x must then form one root path with fixed labels, and x
// is placed at the bottom of that path. Each insertion costs
// O(1 + deg(x)).
//
// The resulting cotree depends only on the edge set, not on edge
// order, duplicates or endpoint order. It renumbers the vertices in
// leaf order (preorder), and its names carry the input numbering:
// the caller's name for vertex k, or "v<k>".
//
// The paper takes the cotree as the input representation (recognition
// on the PRAM is He's separate result); this package exists so the
// public API can accept plain graphs and so tests can verify covers
// against real adjacency.
package cograph

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"pathcover/internal/cotree"
)

// Adjacency is a simple undirected graph on vertices 0..N-1 in
// compressed form: the neighbours of v are nbr[off[v]:off[v+1]],
// sorted ascending, without duplicates or self-loops. It is immutable
// once built, so one Adjacency can serve concurrent readers.
type Adjacency struct {
	N   int
	off []int
	nbr []int
}

// NewAdjacency builds the adjacency of an edge list on vertices
// 0..n-1 in O(n + m) time and memory, without a comparison sort.
// Self-loops are dropped, and duplicates and both orientations of an
// edge collapse to one. An endpoint outside [0, n) is an error.
func NewAdjacency(n int, edges [][2]int) (*Adjacency, error) {
	off := make([]int, n+1)
	for _, e := range edges {
		u, v := e[0], e[1]
		if u < 0 || u >= n || v < 0 || v >= n {
			return nil, fmt.Errorf("edge (%d,%d) out of range", u, v)
		}
		if u != v {
			off[u+1]++
			off[v+1]++
		}
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	// Two bucket passes sort every list: the first files each edge
	// under both endpoints in input order, the second re-files them
	// while scanning the first pass's lists in vertex order, so every
	// list receives its entries in ascending order.
	pos := make([]int, n)
	copy(pos, off)
	byInput := make([]int32, off[n])
	for _, e := range edges {
		u, v := e[0], e[1]
		if u != v {
			byInput[pos[u]] = int32(v)
			pos[u]++
			byInput[pos[v]] = int32(u)
			pos[v]++
		}
	}
	nbr := make([]int, off[n])
	copy(pos, off)
	for u := 0; u < n; u++ {
		for _, v := range byInput[off[u]:off[u+1]] {
			nbr[pos[v]] = u
			pos[v]++
		}
	}
	// Compact away duplicates, which now sit next to each other.
	w := 0
	for v := 0; v < n; v++ {
		start, end := off[v], off[v+1]
		off[v] = w
		for i := start; i < end; i++ {
			if w == off[v] || nbr[i] != nbr[w-1] {
				nbr[w] = nbr[i]
				w++
			}
		}
	}
	off[n] = w
	return &Adjacency{N: n, off: off, nbr: nbr[:w:w]}, nil
}

// Neighbors returns the sorted neighbour list of v (shared storage; do
// not mutate).
func (a *Adjacency) Neighbors(v int) []int { return a.nbr[a.off[v]:a.off[v+1]:a.off[v+1]] }

// Degree returns the degree of v.
func (a *Adjacency) Degree(v int) int { return a.off[v+1] - a.off[v] }

// NumEdges counts edges.
func (a *Adjacency) NumEdges() int { return len(a.nbr) / 2 }

// Adjacent reports whether u and v share an edge (binary search).
func (a *Adjacency) Adjacent(u, v int) bool {
	nb := a.Neighbors(u)
	i := sort.SearchInts(nb, v)
	return i < len(nb) && nb[i] == v
}

// Edges lists every edge once as {u, v} with u < v, in ascending
// order.
func (a *Adjacency) Edges() [][2]int {
	out := make([][2]int, 0, a.NumEdges())
	for u := 0; u < a.N; u++ {
		nb := a.Neighbors(u)
		for _, v := range nb[sort.SearchInts(nb, u+1):] {
			out = append(out, [2]int{u, v})
		}
	}
	return out
}

// Graph collects an edge list on vertices 0..N-1; its queries and
// Recognize read the Adjacency built from it.
type Graph struct {
	N     int
	edges [][2]int
	adj   *Adjacency // built on first query, dropped by AddEdge
}

// NewGraph returns an empty graph on n vertices.
func NewGraph(n int) *Graph { return &Graph{N: n} }

// AddEdge inserts the undirected edge {x, y}. Self-loops and repeated
// edges are ignored; an endpoint outside [0, N) panics at the next
// query.
func (g *Graph) AddEdge(x, y int) {
	g.edges = append(g.edges, [2]int{x, y})
	g.adj = nil
}

// Adjacency returns the graph's sorted, deduplicated adjacency lists.
func (g *Graph) Adjacency() *Adjacency {
	if g.adj == nil {
		a, err := NewAdjacency(g.N, g.edges)
		if err != nil {
			panic("cograph: " + err.Error())
		}
		g.adj = a
	}
	return g.adj
}

// HasEdge reports adjacency.
func (g *Graph) HasEdge(x, y int) bool { return g.Adjacency().Adjacent(x, y) }

// Degree returns the degree of x.
func (g *Graph) Degree(x int) int { return g.Adjacency().Degree(x) }

// NumEdges counts edges.
func (g *Graph) NumEdges() int { return g.Adjacency().NumEdges() }

// Neighbors returns the sorted adjacency list of x.
func (g *Graph) Neighbors(x int) []int { return g.Adjacency().Neighbors(x) }

// FromCotree materializes the cograph represented by a cotree: an edge
// for every leaf pair whose LCA is a 1-node. O(n + m) via a recursion
// that crosses child leaf sets at 1-nodes.
func FromCotree(t *cotree.Tree) *Graph {
	g := NewGraph(t.NumVertices())
	// leafSets[u] built bottom-up; process in reverse BFS order.
	order := bfsOrder(t)
	leafSet := make([][]int, t.NumNodes())
	for i := len(order) - 1; i >= 0; i-- {
		u := order[i]
		if t.Label[u] == cotree.LabelLeaf {
			leafSet[u] = []int{t.VertexOf[u]}
			continue
		}
		var all []int
		for _, c := range t.Children[u] {
			if t.Label[u] == cotree.Label1 {
				for _, x := range all {
					for _, y := range leafSet[c] {
						g.AddEdge(x, y)
					}
				}
			}
			all = append(all, leafSet[c]...)
			leafSet[c] = nil
		}
		leafSet[u] = all
	}
	return g
}

func bfsOrder(t *cotree.Tree) []int {
	order := make([]int, 0, t.NumNodes())
	queue := []int{t.Root}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		order = append(order, u)
		queue = append(queue, t.Children[u]...)
	}
	return order
}

// Recognize builds the cotree of g, or reports that g is not a cograph
// (it contains an induced P4) or has an edge out of range. See
// RecognizeAdjacency.
func Recognize(g *Graph, names []string) (*cotree.Tree, error) {
	a, err := NewAdjacency(g.N, g.edges)
	if err != nil {
		return nil, fmt.Errorf("cograph: %w", err)
	}
	return RecognizeAdjacency(a, names)
}

// IsCograph reports whether g is a cograph.
func IsCograph(g *Graph) bool {
	if g.N == 0 {
		return false
	}
	_, err := Recognize(g, nil)
	return err == nil
}

// RecognizeAdjacency builds the cotree of a, or reports an induced P4,
// in O(n + m) time and memory. Vertex k of the input becomes the leaf
// named names[k] (or "v<k>" when names has no entry); the tree numbers
// vertices in leaf order.
func RecognizeAdjacency(a *Adjacency, names []string) (*cotree.Tree, error) {
	if a.N == 0 {
		return nil, fmt.Errorf("cograph: empty graph has no cotree")
	}
	r := newRecognizer(a.N)
	for x := 0; x < a.N; x++ {
		nb := a.Neighbors(x)
		earlier := nb[:sort.SearchInts(nb, x)]
		if !r.insert(uint32(x), earlier) {
			return nil, fmt.Errorf("cograph: vertex %d completes an induced P4 with earlier vertices: not a cograph", x)
		}
	}
	return r.tree(names), nil
}

// none marks a missing parent, sibling or child in the recognizer.
const none = ^uint32(0)

// recognizer is the cotree under construction, kept canonical
// (internal nodes alternate labels and have at least two children)
// after every insertion. Child lists are doubly linked so a node moves
// in O(1). Nodes 0..n-1 are the leaves (leaf v is vertex v); internal
// nodes are numbered from n as they are created, and no node is ever
// deleted, so 2n-1 slots suffice and uint32 ids cover every n up to
// MaxInt32.
type recognizer struct {
	n     uint32
	nodes uint32 // slots in use
	root  uint32

	label                   []int8
	parent, prev, next      []uint32 // or none
	first, last, nch        []uint32 // child list ends and length
	md, fullAt, seen, below []uint32 // per-insertion marks, see insert
	full, touched           []uint32 // per-insertion worklists
}

func newRecognizer(n int) *recognizer {
	size := 2*n - 1
	r := &recognizer{n: uint32(n), nodes: uint32(n), label: make([]int8, size)}
	for _, s := range []*[]uint32{&r.parent, &r.prev, &r.next, &r.first, &r.last,
		&r.nch, &r.md, &r.fullAt, &r.seen, &r.below} {
		*s = make([]uint32, size)
	}
	for u := range size {
		r.parent[u], r.prev[u], r.next[u], r.first[u], r.last[u] = none, none, none, none, none
	}
	for v := range n {
		r.label[v] = cotree.LabelLeaf
	}
	return r
}

// insert adds vertex x, adjacent to exactly the earlier vertices s, or
// reports that x completes an induced P4. Call it with x = 0, 1, 2, ...
//
// A node is full when all its leaves are in s, and mixed when only
// some are. The full nodes are found bottom-up from s: md counts a
// node's full children, and a node is full once md reaches its child
// count. x fits iff the mixed nodes form one path from the root down
// to a lowest node u, every 1-node above u has all its other children
// full, and every 0-node above u has no full child. Each step touches
// O(1 + |s|) nodes.
func (r *recognizer) insert(x uint32, s []int) bool {
	switch {
	case x == 0:
		r.root = 0
		return true
	case len(s) == 0:
		r.attach(r.root, x, cotree.Label0)
		return true
	case len(s) == int(x):
		r.attach(r.root, x, cotree.Label1)
		return true
	}
	step := x // stamps: 0 means never, and step 0 returned above
	full, touched := r.full[:0], r.touched[:0]
	for _, y := range s {
		r.fullAt[y] = step
		full = append(full, uint32(y))
	}
	// The root is never full here: s holds some, not all, earlier
	// vertices.
	for i := 0; i < len(full); i++ {
		p := r.parent[full[i]]
		if r.md[p] == 0 {
			touched = append(touched, p)
		}
		r.md[p]++
		if r.md[p] == r.nch[p] {
			r.fullAt[p] = step
			full = append(full, p)
		}
	}
	r.full, r.touched = full, touched
	u := r.lowestMixed(step)
	if u != none {
		r.place(x, u, step)
	}
	for _, p := range touched {
		r.md[p] = 0
	}
	return u != none
}

// lowestMixed returns the bottom of the mixed path, or none when the
// mixed nodes break the conditions of insert. Every mixed node is, or
// lies above, a mixed node with a full child, and those are the
// touched nodes that are not full. Walking up from each of them,
// marking nodes seen and recording the child each was reached from
// (below), visits every mixed node once; a node reached from two
// children is a fork. Every check fails fast, so the walk costs
// O(|touched|).
func (r *recognizer) lowestMixed(step uint32) uint32 {
	for _, p := range r.touched {
		if r.fullAt[p] == step || r.seen[p] == step {
			continue
		}
		r.seen[p], r.below[p] = step, none
		for c, a := p, r.parent[p]; a != none; c, a = a, r.parent[a] {
			if r.seen[a] == step {
				if r.below[a] != none || !r.passes(a) {
					return none
				}
				r.below[a] = c
				break
			}
			if !r.passes(a) {
				return none
			}
			r.seen[a], r.below[a] = step, c
		}
	}
	for _, p := range r.touched {
		if r.fullAt[p] != step && r.below[p] == none {
			return p
		}
	}
	return none
}

// passes reports whether a mixed node above the bottom of the path has
// the children x needs: all but the path child full under a 1-node,
// none full under a 0-node.
func (r *recognizer) passes(a uint32) bool {
	if r.label[a] == cotree.Label1 {
		return r.md[a] == r.nch[a]-1
	}
	return r.md[a] == 0
}

// place inserts x at the bottom u of the mixed path: x must end up
// adjacent to the full children of u and to none of the others.
func (r *recognizer) place(x, u, step uint32) {
	if r.label[u] == cotree.Label1 {
		if r.nch[u]-r.md[u] == 1 {
			// One child misses x: x joins it under a 0-node.
			c := r.first[u]
			for r.fullAt[c] == step {
				c = r.next[c]
			}
			r.attach(c, x, cotree.Label0)
			return
		}
		// Several children miss x. They stay under u, which moves down
		// beside x under a new 0-node; the full children move to a new
		// 1-node in u's place.
		j := r.newNode(cotree.Label1)
		r.replace(u, j)
		r.moveFull(u, j)
		z := r.newNode(cotree.Label0)
		r.link(z, u)
		r.link(z, x)
		r.link(j, z)
		return
	}
	if r.md[u] == 1 {
		// One child is full: x joins it under a 1-node.
		i := 0
		for r.parent[r.full[i]] != u {
			i++
		}
		r.attach(r.full[i], x, cotree.Label1)
		return
	}
	// Several children are full: they move under a new 0-node, which
	// joins x under a new 1-node below u.
	k := r.newNode(cotree.Label0)
	r.moveFull(u, k)
	j := r.newNode(cotree.Label1)
	r.link(j, k)
	r.link(j, x)
	r.link(u, j)
}

// attach makes x a sibling of c under a node labelled label: c itself
// when it carries that label, else a new node in c's place.
func (r *recognizer) attach(c, x uint32, label int8) {
	if r.label[c] == label {
		r.link(c, x)
		return
	}
	z := r.newNode(label)
	r.replace(c, z)
	r.link(z, c)
	r.link(z, x)
}

// moveFull moves the full children of u, in the order they became
// full, to the end of dst's child list.
func (r *recognizer) moveFull(u, dst uint32) {
	for _, c := range r.full {
		if r.parent[c] == u {
			r.unlink(c)
			r.link(dst, c)
		}
	}
}

func (r *recognizer) newNode(label int8) uint32 {
	u := r.nodes
	r.nodes++
	r.label[u] = label
	return u
}

// link appends the detached node c to p's children.
func (r *recognizer) link(p, c uint32) {
	r.parent[c], r.prev[c], r.next[c] = p, r.last[p], none
	if r.last[p] != none {
		r.next[r.last[p]] = c
	} else {
		r.first[p] = c
	}
	r.last[p] = c
	r.nch[p]++
}

// unlink detaches c from its parent.
func (r *recognizer) unlink(c uint32) {
	p := r.parent[c]
	if r.prev[c] != none {
		r.next[r.prev[c]] = r.next[c]
	} else {
		r.first[p] = r.next[c]
	}
	if r.next[c] != none {
		r.prev[r.next[c]] = r.prev[c]
	} else {
		r.last[p] = r.prev[c]
	}
	r.nch[p]--
	r.parent[c], r.prev[c], r.next[c] = none, none, none
}

// replace puts the detached node z where c is, and detaches c.
func (r *recognizer) replace(c, z uint32) {
	p, pv, nx := r.parent[c], r.prev[c], r.next[c]
	r.parent[z], r.prev[z], r.next[z] = p, pv, nx
	switch {
	case p == none:
		r.root = z
	case pv != none:
		r.next[pv] = z
	default:
		r.first[p] = z
	}
	if nx != none {
		r.prev[nx] = z
	} else if p != none {
		r.last[p] = z
	}
	r.parent[c], r.prev[c], r.next[c] = none, none, none
}

// tree writes the arena out as a cotree in one preorder pass: node ids
// and vertex ids follow preorder, children keep their list order, and
// every child list is a window of one shared backing array.
func (r *recognizer) tree(names []string) *cotree.Tree {
	nodes, n := int(r.nodes), int(r.n)
	t := &cotree.Tree{
		Label:    make([]int8, nodes),
		Parent:   make([]int, nodes),
		Children: make([][]int, nodes),
		VertexOf: make([]int, nodes),
		LeafOf:   make([]int, n),
		Names:    make([]string, n),
	}
	kids := make([]int, nodes-1)
	name := vertexNames(n, names)
	id := r.seen // free once recognition is done: arena node -> tree node
	stack := []uint32{r.root}
	next, leaf := 0, 0
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		i := next
		next++
		id[u] = uint32(i)
		if p := r.parent[u]; p == none {
			t.Parent[i], t.Root = -1, i
		} else {
			pi := id[p]
			t.Parent[i] = int(pi)
			t.Children[pi] = append(t.Children[pi], i)
		}
		t.Label[i] = r.label[u]
		if u < r.n {
			t.VertexOf[i] = leaf
			t.LeafOf[leaf] = i
			t.Names[leaf] = name[u]
			leaf++
			continue
		}
		t.VertexOf[i] = -1
		k := int(r.nch[u])
		t.Children[i], kids = kids[:0:k], kids[k:]
		for c := r.last[u]; c != none; c = r.prev[c] {
			stack = append(stack, c)
		}
	}
	return t
}

// vertexNames returns the display name of every input vertex: the
// caller's name when given, else "v<k>". The default names are
// substrings of one string, so naming costs a few allocations, not one
// per vertex.
func vertexNames(n int, names []string) []string {
	given := func(v int) bool { return v < len(names) && names[v] != "" }
	var sb strings.Builder
	var digits [20]byte
	for v := range n {
		if !given(v) {
			sb.WriteByte('v')
			sb.Write(strconv.AppendInt(digits[:0], int64(v), 10))
		}
	}
	all, pos := sb.String(), 0
	out := make([]string, n)
	for v := range n {
		if given(v) {
			out[v] = names[v]
			continue
		}
		end := pos + 1 + len(strconv.AppendInt(digits[:0], int64(v), 10))
		out[v], pos = all[pos:end], end
	}
	return out
}
