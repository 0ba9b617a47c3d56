package backend

import "sort"

// ApproxCover computes a path cover of an arbitrary graph by the
// deterministic greedy of the ½-approximation path cover family (Lin &
// Ren, arXiv:2101.08947): grow a maximal linear forest by scanning the
// edges in a fixed low-degree-endpoints-first order, taking an edge
// whenever both endpoints still have path-degree < 2 and joining them
// does not close a cycle. Each taken edge removes one path from the
// trivial n-singleton cover, so the answer has n - |taken| paths; the
// forest is maximal under the scan order, and processing scarce
// (low-degree) endpoints first is the paper's deterministic
// optimization of the plain greedy.
//
// The result is a valid cover of every input but is not guaranteed
// minimal — the routing layer marks it approximate and reports the gap
// against the combinatorial lower bound.
//
// Phases: step1 orders the edges, step2 runs the greedy scan, step3
// extracts the paths. check is called before each.
func ApproxCover(g *Graph, checkFn CheckFunc) (*Result, error) {
	if err := check(checkFn, "step1"); err != nil {
		return nil, err
	}
	order := make([]int, len(g.Edges))
	for i := range order {
		order[i] = i
	}
	rank := func(i int) (int, int) {
		e := g.Edges[i]
		a, b := g.Degree(e[0]), g.Degree(e[1])
		if a > b {
			a, b = b, a
		}
		return a, b
	}
	sort.SliceStable(order, func(x, y int) bool {
		ax, bx := rank(order[x])
		ay, by := rank(order[y])
		if ax != ay {
			return ax < ay
		}
		return bx < by
	})
	if err := check(checkFn, "step2"); err != nil {
		return nil, err
	}
	ls := newLinkSet(g.N)
	uf := newUnionFind(g.N)
	taken := 0
	for _, i := range order {
		u, v := g.Edges[i][0], g.Edges[i][1]
		if ls.deg[u] < 2 && ls.deg[v] < 2 && uf.union(u, v) {
			ls.add(u, v)
			taken++
		}
	}
	if err := check(checkFn, "step3"); err != nil {
		return nil, err
	}
	paths := ls.paths()
	return &Result{Paths: paths, NumPaths: g.N - taken}, nil
}
