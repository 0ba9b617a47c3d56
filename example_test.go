package pathcover_test

import (
	"context"
	"fmt"

	"pathcover"
)

func ExampleParseCotree() {
	g, err := pathcover.ParseCotree("(1 (0 a b) c)")
	if err != nil {
		panic(err)
	}
	fmt.Println(g.N(), "vertices,", g.NumEdges(), "edges")
	// Output: 3 vertices, 2 edges
}

func ExampleGraph_MinimumPathCover() {
	g := pathcover.MustParseCotree("(1 (0 a b) c)") // the path a-c-b
	cover, err := g.MinimumPathCover(pathcover.WithAlgorithm(pathcover.Sequential))
	if err != nil {
		panic(err)
	}
	fmt.Println("paths:", cover.NumPaths)
	fmt.Print(g.RenderCover(cover.Paths))
	// Output:
	// paths: 1
	// path 1 (3 vertices): a — c — b
}

func ExampleGraph_HamiltonianCycle() {
	// K_{3,3} is Hamiltonian.
	g := pathcover.CompleteBipartite(3, 3)
	cycle, ok := g.HamiltonianCycle()
	fmt.Println(ok, len(cycle))
	// Output: true 6
}

func ExampleFromEdges() {
	// C4 (a 4-cycle) is the cograph K_{2,2}; P4 is the forbidden graph.
	_, err := pathcover.FromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}, nil)
	fmt.Println("C4:", err)
	_, err = pathcover.FromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}}, nil)
	fmt.Println("P4 rejected:", err != nil)
	// Output:
	// C4: <nil>
	// P4 rejected: true
}

func ExampleJoin() {
	// The join of two independent pairs is C4: every cross edge exists.
	ab := pathcover.Union(pathcover.Vertex("a"), pathcover.Vertex("b"))
	cd := pathcover.Union(pathcover.Vertex("c"), pathcover.Vertex("d"))
	g := pathcover.Join(ab, cd)
	fmt.Println(g.String())
	fmt.Println(g.Adjacent(0, 2), g.Adjacent(0, 1))
	// Output:
	// (1 (0 a b) (0 c d))
	// true false
}

func ExampleGraph_MinPathCoverSize() {
	// A star K_{1,5} needs 4 paths: one through the center, 4 leftovers.
	fmt.Println(pathcover.Star(6).MinPathCoverSize())
	// Output: 4
}

func ExampleWithCache() {
	// A cached pool serves repeated graphs — relabelled isomorphic
	// presentations included — from a canonical-identity result cache.
	pool := pathcover.NewPool(pathcover.WithShards(1), pathcover.WithCache(16<<20))
	defer pool.Close()

	a := pathcover.MustParseCotree("(1 (0 a b) c)")
	b := pathcover.MustParseCotree("(1 c (0 b a))") // the same graph, rewritten
	ctx := context.Background()
	if _, err := pool.MinimumPathCover(ctx, a); err != nil {
		panic(err)
	}
	cov, err := pool.MinimumPathCover(ctx, b)
	if err != nil {
		panic(err)
	}
	st := pool.Stats()
	fmt.Println("paths:", cov.NumPaths, "shard:", cov.Shard) // -1 = served by the cache
	fmt.Println("hits:", st.Cache.Hits, "misses:", st.Cache.Misses)
	// Output:
	// paths: 1 shard: -1
	// hits: 1 misses: 1
}
