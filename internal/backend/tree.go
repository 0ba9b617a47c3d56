package backend

import "fmt"

// TreeCover computes an exact minimum path cover of a forest by the
// linear bottom-up greedy DP: rooting each component, every vertex
// links to at most two of its children that are still open path
// endpoints — two links merge two child paths through the vertex, one
// link extends a child path, zero links start a new path. The greedy is
// optimal on forests (a straightforward exchange argument; it is the
// tree specialization of the bounded-treewidth DP of arXiv:2511.07160).
//
// Phases: step1 roots the forest (BFS), step2 runs the DP, step3
// extracts the paths. check is called before each.
func TreeCover(g *Graph, checkFn CheckFunc) (*Result, error) {
	if !g.forest {
		return nil, fmt.Errorf("backend: tree backend requires a forest (graph has a cycle)")
	}
	if err := check(checkFn, "step1"); err != nil {
		return nil, err
	}
	order, parent := rootForest(g)
	if err := check(checkFn, "step2"); err != nil {
		return nil, err
	}
	ls := newLinkSet(g.N)
	open := make([]bool, g.N)
	numPaths := 0
	// Reverse BFS order is a valid bottom-up schedule: every child
	// appears after its parent in BFS order, so walking backwards
	// processes all children before their parent.
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		attached := 0
		for _, w := range g.Neighbors(v) {
			if w == parent[v] || !open[w] {
				continue
			}
			ls.add(v, w)
			open[w] = false
			attached++
			if attached == 2 {
				break
			}
		}
		switch attached {
		case 0:
			numPaths++ // v starts a fresh path
			open[v] = true
		case 1:
			open[v] = true // v extends a child path and becomes its endpoint
		default:
			numPaths-- // two child paths merge through v
		}
	}
	if err := check(checkFn, "step3"); err != nil {
		return nil, err
	}
	paths := ls.paths()
	if len(paths) != numPaths {
		return nil, fmt.Errorf("backend: tree DP counted %d paths, extracted %d", numPaths, len(paths))
	}
	return &Result{Paths: paths, NumPaths: numPaths}, nil
}

// TreeCoverSize returns only the minimum path cover size of a forest
// (the DP without link bookkeeping); -1 when g is not a forest.
func TreeCoverSize(g *Graph) int {
	if !g.forest {
		return -1
	}
	order, parent := rootForest(g)
	open := make([]bool, g.N)
	numPaths := 0
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		attached := 0
		for _, w := range g.Neighbors(v) {
			if w == parent[v] || !open[w] {
				continue
			}
			open[w] = false
			attached++
			if attached == 2 {
				break
			}
		}
		switch attached {
		case 0:
			numPaths++
			open[v] = true
		case 1:
			open[v] = true
		default:
			numPaths--
		}
	}
	return numPaths
}

// rootForest BFS-roots every component at its smallest vertex,
// returning the visit order (parents before children) and the parent of
// each vertex (-1 for roots).
func rootForest(g *Graph) (order []int, parent []int) {
	parent = make([]int, g.N)
	visited := make([]bool, g.N)
	for i := range parent {
		parent[i] = -1
	}
	order = make([]int, 0, g.N)
	queue := make([]int, 0, g.N)
	for r := 0; r < g.N; r++ {
		if visited[r] {
			continue
		}
		visited[r] = true
		queue = append(queue[:0], r)
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			order = append(order, v)
			for _, w := range g.Neighbors(v) {
				if !visited[w] {
					visited[w] = true
					parent[w] = v
					queue = append(queue, w)
				}
			}
		}
	}
	return order, parent
}
