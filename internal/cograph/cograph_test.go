package cograph

import (
	"fmt"
	"math/rand/v2"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"pathcover/internal/cotree"
)

func TestGraphBasics(t *testing.T) {
	g := NewGraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 0) // ignored
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) || g.HasEdge(0, 2) {
		t.Fatal("edge bookkeeping wrong")
	}
	if g.NumEdges() != 2 || g.Degree(1) != 2 {
		t.Fatalf("edges=%d deg(1)=%d", g.NumEdges(), g.Degree(1))
	}
	nb := g.Neighbors(1)
	if len(nb) != 2 || nb[0] != 0 || nb[1] != 2 {
		t.Fatalf("neighbors(1)=%v", nb)
	}
}

func TestFromCotreeMatchesOracle(t *testing.T) {
	cases := []string{
		"a",
		"(0 a b)",
		"(1 a b)",
		"(1 (0 a b) c)",
		"(0 (1 a b c) (1 d e))",
		"(1 (0 (1 a b) c) d (0 e f))",
	}
	for _, src := range cases {
		tr := cotree.MustParse(src)
		g := FromCotree(tr)
		o := cotree.NewAdjOracle(tr)
		n := tr.NumVertices()
		for x := 0; x < n; x++ {
			for y := 0; y < n; y++ {
				if g.HasEdge(x, y) != o.Adjacent(x, y) {
					t.Fatalf("%s: edge (%d,%d) mismatch", src, x, y)
				}
			}
		}
	}
}

func TestRecognizeP4Fails(t *testing.T) {
	// P4: the path a-b-c-d is the canonical non-cograph.
	p4 := NewGraph(4)
	p4.AddEdge(0, 1)
	p4.AddEdge(1, 2)
	p4.AddEdge(2, 3)
	if _, err := Recognize(p4, nil); err == nil {
		t.Fatal("P4 recognized as cograph")
	}
	if IsCograph(p4) {
		t.Fatal("IsCograph(P4) = true")
	}
}

func TestRecognizeRoundTrip(t *testing.T) {
	cases := []string{
		"(0 a b)",
		"(1 a b c d)",
		"(1 (0 a b) c)",
		"(0 (1 a b c) (1 d e) f)",
		"(1 (0 (1 a b) (1 c d)) (0 e f g))",
	}
	for _, src := range cases {
		tr := cotree.MustParse(src)
		g := FromCotree(tr)
		rec, err := Recognize(g, nil)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if err := rec.Validate(); err != nil {
			t.Fatalf("%s: recognized cotree invalid: %v", src, err)
		}
		// The recognized tree renumbers vertices; names ("v<orig>") carry
		// the permutation.
		g2 := FromCotree(rec)
		perm := make([]int, rec.NumVertices())
		for v := 0; v < rec.NumVertices(); v++ {
			orig, err := strconv.Atoi(strings.TrimPrefix(rec.Name(v), "v"))
			if err != nil {
				t.Fatalf("unexpected name %q", rec.Name(v))
			}
			perm[v] = orig
		}
		for x := 0; x < g2.N; x++ {
			for y := 0; y < g2.N; y++ {
				if g2.HasEdge(x, y) != g.HasEdge(perm[x], perm[y]) {
					t.Fatalf("%s: recognition changed adjacency", src)
				}
			}
		}
	}
}

// hasP4 brute-forces induced-P4 detection on at most 64 vertices.
func hasP4(g *Graph) bool {
	var edges [][2]int
	for x := 0; x < g.N; x++ {
		for _, y := range g.Neighbors(x) {
			edges = append(edges, [2]int{x, y})
		}
	}
	return hasInducedP4(g.N, edges)
}

// Property: IsCograph agrees with brute-force P4-freeness on small random
// graphs (the defining characterization of cographs).
func TestRecognizeAgreesWithP4Freeness(t *testing.T) {
	f := func(seed uint64, nRaw uint8, density uint8) bool {
		n := int(nRaw%7) + 1
		rng := rand.New(rand.NewPCG(seed, 99))
		g := NewGraph(n)
		d := int(density%10) + 1
		for x := 0; x < n; x++ {
			for y := x + 1; y < n; y++ {
				if rng.IntN(10) < d {
					g.AddEdge(x, y)
				}
			}
		}
		return IsCograph(g) == !hasP4(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRecognizeLargerRandomCotrees(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	for trial := 0; trial < 10; trial++ {
		tr := randomTree(rng, 2+rng.IntN(60))
		g := FromCotree(tr)
		rec, err := Recognize(g, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if rec.NumVertices() != g.N {
			t.Fatalf("trial %d: vertex count changed", trial)
		}
	}
}

// randomTree builds a random canonical cotree (duplicated from the cotree
// tests to avoid an import cycle through test helpers).
func randomTree(rng *rand.Rand, n int) *cotree.Tree {
	var build func(n int, label int8) *cotree.Tree
	id := 0
	build = func(n int, label int8) *cotree.Tree {
		if n == 1 {
			id++
			return cotree.Single(fmt.Sprintf("u%d", id))
		}
		k := 2
		if n > 2 {
			k = 2 + rng.IntN(min(n-1, 4)-1)
		}
		sizes := make([]int, k)
		for i := range sizes {
			sizes[i] = 1
		}
		for extra := n - k; extra > 0; extra-- {
			sizes[rng.IntN(k)]++
		}
		child := cotree.Label0
		if label == cotree.Label0 {
			child = cotree.Label1
		}
		parts := make([]*cotree.Tree, k)
		for i := range parts {
			parts[i] = build(sizes[i], child)
		}
		if label == cotree.Label1 {
			return cotree.Join(parts...)
		}
		return cotree.Union(parts...)
	}
	return build(n, cotree.Label1)
}

// Fig. 1 of the paper shows a cograph beside its cotree with the
// defining property: vertices are adjacent iff their lowest common
// ancestor is a 1-node. This test pins the correspondence on a concrete
// instance covering every ancestor configuration.
func TestFig1Correspondence(t *testing.T) {
	tr := cotree.MustParse("(0 (1 a (0 b c)) (1 d e f))")
	g := FromCotree(tr)
	name := map[string]int{}
	for v := 0; v < tr.NumVertices(); v++ {
		name[tr.Name(v)] = v
	}
	type edge struct {
		x, y string
		want bool
	}
	cases := []edge{
		{"a", "b", true},  // LCA = the 1-node
		{"a", "c", true},  //
		{"b", "c", false}, // LCA = the inner 0-node
		{"d", "e", true},  // LCA = the right 1-node
		{"d", "f", true},
		{"e", "f", true},
		{"a", "d", false}, // LCA = the 0-root: different components
		{"b", "f", false},
	}
	for _, c := range cases {
		if got := g.HasEdge(name[c.x], name[c.y]); got != c.want {
			t.Errorf("edge (%s,%s) = %v, want %v", c.x, c.y, got, c.want)
		}
	}
	if g.NumEdges() != 5 {
		t.Errorf("m = %d, want 5", g.NumEdges())
	}
}
