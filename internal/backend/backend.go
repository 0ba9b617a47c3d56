// Package backend holds the degraded-mode solve routes that serve the
// inputs the paper's algorithm cannot: an exact dynamic program for
// forests (the common tree-input case, after Foucaud, Majumder, Mömke
// and Roshany-Tabrizi, arXiv:2511.07160 — on trees the bounded-treewidth
// machinery collapses to a linear greedy DP) and a deterministic
// ½-approximation path cover for arbitrary graphs (after Lin and Ren,
// arXiv:2101.08947 — grow a maximal linear forest by greedy edge
// selection, low-degree endpoints first).
//
// Neither route touches the PRAM cost simulator: degraded answers are
// host-sequential and report zero simulated cost, so the paper's
// counters stay reserved for the exact cograph pipeline.
//
// Both solvers accept a between-phase check hook — the same hook the
// cograph pipeline threads through its eight steps — so per-request
// deadlines and the test-only fault injector reach every backend.
package backend

import (
	"fmt"

	"pathcover/internal/cograph"
)

// Graph is a simple undirected graph held as a deduplicated edge list
// plus sorted adjacency lists. It is the representation of inputs that
// are not cographs (no cotree exists); construction is O(n + m) and
// the structure is immutable afterwards, so one Graph can serve
// concurrent requests.
type Graph struct {
	N      int
	Edges  [][2]int // normalized u < v, sorted, deduplicated
	adj    *cograph.Adjacency
	comps  int  // connected components (including isolated vertices)
	forest bool // no cycle in any component
}

// New builds a Graph from an edge list on vertices 0..n-1. Self-loops
// are dropped and duplicate edges collapsed; endpoints must already be
// range-checked by the caller.
func New(n int, edges [][2]int) *Graph {
	adj, err := cograph.NewAdjacency(n, edges)
	if err != nil {
		panic("backend: " + err.Error())
	}
	return FromAdjacency(adj)
}

// FromAdjacency builds a Graph over adjacency lists already built (and
// shared with cograph recognition) by cograph.NewAdjacency.
func FromAdjacency(adj *cograph.Adjacency) *Graph {
	g := &Graph{N: adj.N, Edges: adj.Edges(), adj: adj}
	// One union-find sweep classifies the graph: component count and
	// acyclicity, cached for the per-request routing decision.
	uf := newUnionFind(g.N)
	g.forest = true
	for _, e := range g.Edges {
		if !uf.union(e[0], e[1]) {
			g.forest = false
		}
	}
	g.comps = uf.comps
	return g
}

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int { return g.adj.Degree(v) }

// Neighbors returns v's sorted adjacency list (shared storage; do not
// mutate).
func (g *Graph) Neighbors(v int) []int { return g.adj.Neighbors(v) }

// Adjacent reports whether u and v share an edge (binary search).
func (g *Graph) Adjacent(u, v int) bool { return g.adj.Adjacent(u, v) }

// IsForest reports whether the graph is acyclic (so the exact tree DP
// applies).
func (g *Graph) IsForest() bool { return g.forest }

// Components returns the number of connected components, counting
// isolated vertices.
func (g *Graph) Components() int { return g.comps }

// Result is a backend's answer: the paths of a cover. Exactness and
// lower-bound metadata are attached by the routing layer, which knows
// which backend produced the result.
type Result struct {
	Paths    [][]int
	NumPaths int
}

// CheckFunc is the between-phase hook: it may return an error to abort
// the solve (per-request deadline) and may panic or sleep (fault
// injection). A nil CheckFunc disables checking.
type CheckFunc func(step string) error

func check(f CheckFunc, step string) error {
	if f == nil {
		return nil
	}
	return f(step)
}

// VerifyCover checks that paths form a valid path cover of g: every
// vertex exactly once, consecutive vertices adjacent. It does not judge
// minimality (NP-hard in general); the routing layer compares against
// the exact count where one is known.
func VerifyCover(g *Graph, paths [][]int) error {
	seen := make([]bool, g.N)
	count := 0
	for pi, p := range paths {
		if len(p) == 0 {
			return fmt.Errorf("backend: path %d is empty", pi)
		}
		for i, v := range p {
			if v < 0 || v >= g.N {
				return fmt.Errorf("backend: path %d contains out-of-range vertex %d", pi, v)
			}
			if seen[v] {
				return fmt.Errorf("backend: vertex %d covered twice", v)
			}
			seen[v] = true
			count++
			if i > 0 && !g.Adjacent(p[i-1], v) {
				return fmt.Errorf("backend: path %d uses non-edge (%d,%d)", pi, p[i-1], v)
			}
		}
	}
	if count != g.N {
		return fmt.Errorf("backend: cover has %d vertices, graph has %d", count, g.N)
	}
	return nil
}

// linkSet is the shared path-construction state of both backends: each
// vertex carries up to two path-neighbor links, forming a linear forest
// whose maximal paths are the cover.
type linkSet struct {
	link [][2]int
	deg  []int
}

func newLinkSet(n int) *linkSet {
	ls := &linkSet{link: make([][2]int, n), deg: make([]int, n)}
	for i := range ls.link {
		ls.link[i] = [2]int{-1, -1}
	}
	return ls
}

func (ls *linkSet) add(u, v int) {
	ls.link[u][ls.deg[u]] = v
	ls.deg[u]++
	ls.link[v][ls.deg[v]] = u
	ls.deg[v]++
}

// paths walks the linear forest into explicit vertex paths: every
// vertex with link degree < 2 starts a path (isolated vertices are
// singletons); interior vertices are reached by the walk.
func (ls *linkSet) paths() [][]int {
	n := len(ls.link)
	visited := make([]bool, n)
	var out [][]int
	for v := 0; v < n; v++ {
		if visited[v] || ls.deg[v] == 2 {
			continue
		}
		path := []int{v}
		visited[v] = true
		prev, cur := -1, v
		for {
			next := -1
			if a := ls.link[cur][0]; a != -1 && a != prev {
				next = a
			} else if b := ls.link[cur][1]; b != -1 && b != prev {
				next = b
			}
			if next == -1 {
				break
			}
			visited[next] = true
			path = append(path, next)
			prev, cur = cur, next
		}
		out = append(out, path)
	}
	return out
}

// unionFind is a plain path-halving union-find.
type unionFind struct {
	parent []int
	comps  int
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n), comps: n}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

func (uf *unionFind) find(x int) int {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]]
		x = uf.parent[x]
	}
	return x
}

// union merges the sets of a and b, reporting false when they were
// already joined (the new edge would close a cycle).
func (uf *unionFind) union(a, b int) bool {
	ra, rb := uf.find(a), uf.find(b)
	if ra == rb {
		return false
	}
	uf.parent[ra] = rb
	uf.comps--
	return true
}
