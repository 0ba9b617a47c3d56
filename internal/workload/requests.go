package workload

import (
	"fmt"
	"math/rand/v2"

	"pathcover/internal/cotree"
)

// Kind classifies a request's graph family by the solve route it
// exercises. The zero value (KindCograph) keeps pre-existing Request
// literals meaning what they always did.
type Kind int

const (
	// KindCograph is a random cotree instance — the exact cograph route.
	KindCograph Kind = iota
	// KindTree is a random spanning tree given as an edge list — not a
	// cograph (any path on 4+ vertices contains an induced P4), so it
	// exercises the exact tree backend.
	KindTree
	// KindSparse is a random sparse graph (~2n edges) given as an edge
	// list — almost surely neither a cograph nor a forest, so it
	// exercises the approximation fallback.
	KindSparse
	// KindNearCograph is a disjoint union of 4-cliques (a cograph) plus
	// one bridge edge that induces a P4 — the "one bad edge away"
	// adversarial case for recognition-based routing.
	KindNearCograph
)

// String renders the catalog-entry kind for table headers.
func (k Kind) String() string {
	switch k {
	case KindCograph:
		return "cograph"
	case KindTree:
		return "tree"
	case KindSparse:
		return "sparse"
	case KindNearCograph:
		return "near-cograph"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Request is one query of a serving workload: which graph of the
// catalog it asks about. Serving traffic re-queries a bounded catalog
// of graphs (the same families over and over) rather than presenting a
// fresh graph per request, so the stream is expressed as draws from a
// catalog; Catalog collapses the distinct entries. Request stays a
// comparable value — it is used as a map key by serving registries.
type Request struct {
	Seed  uint64
	N     int
	Shape Shape
	Kind  Kind
}

// Tree materialises the request's cotree (KindCograph only; the other
// kinds have no cotree — use Edges).
func (r Request) Tree() *cotree.Tree {
	if r.Kind != KindCograph {
		panic("workload: Tree called on a non-cograph request")
	}
	return Random(r.Seed, r.N, r.Shape)
}

// Edges materialises the request's edge list (the non-cograph kinds;
// KindCograph graphs are cotree-built and have no edge-list form here).
func (r Request) Edges() [][2]int {
	switch r.Kind {
	case KindTree:
		return TreeEdges(r.Seed, r.N)
	case KindSparse:
		return SparseEdges(r.Seed, r.N)
	case KindNearCograph:
		return NearCographEdges(r.Seed, r.N)
	}
	panic("workload: Edges called on a cograph request")
}

// TreeEdges returns a random labelled tree on n vertices (each vertex
// attaches to a uniform earlier one), deterministic in the seed.
func TreeEdges(seed uint64, n int) [][2]int {
	rng := rand.New(rand.NewPCG(seed, 0x7ee5))
	edges := make([][2]int, 0, max(n-1, 0))
	for v := 1; v < n; v++ {
		edges = append(edges, [2]int{rng.IntN(v), v})
	}
	return edges
}

// SparseEdges returns a random graph with about 2n distinct edges on n
// vertices, deterministic in the seed. For n past a handful the result
// contains induced P4s and cycles with overwhelming probability, making
// it the approximation route's steady diet.
func SparseEdges(seed uint64, n int) [][2]int {
	rng := rand.New(rand.NewPCG(seed, 0x5a135))
	m := 2 * n
	seen := make(map[[2]int]bool, m)
	edges := make([][2]int, 0, m)
	for len(edges) < m && len(edges) < n*(n-1)/2 {
		u, v := rng.IntN(n), rng.IntN(n)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		if seen[[2]int{u, v}] {
			continue
		}
		seen[[2]int{u, v}] = true
		edges = append(edges, [2]int{u, v})
	}
	return edges
}

// NearCographEdges returns a disjoint union of 4-cliques — a cograph —
// plus a single bridge between the first two cliques, which induces a
// P4 and makes the whole graph fail recognition by exactly one edge.
func NearCographEdges(seed uint64, n int) [][2]int {
	var edges [][2]int
	for base := 0; base < n; base += 4 {
		top := min(base+4, n)
		for u := base; u < top; u++ {
			for v := u + 1; v < top; v++ {
				edges = append(edges, [2]int{u, v})
			}
		}
	}
	if n >= 8 {
		// Bridge between clique 0 and clique 1: for u in K0\{3}, 3, 4,
		// v in K1\{4}, the vertices u-3-4-v induce a P4.
		edges = append(edges, [2]int{3, 4})
	}
	_ = seed // the family is deterministic; seed kept for signature symmetry
	return edges
}

// Requests returns a deterministic serving workload of count queries.
// The catalog holds `distinct` graphs whose sizes are log-uniform in
// [2^minLg, 2^(maxLg+1)) — a bucket exponent is drawn uniformly from
// [minLg, maxLg], then the size uniformly within that power-of-two
// bucket — with shapes cycling through the three silhouettes; the
// stream then draws count requests uniformly from the catalog.
// Identical Request values denote the identical graph, so callers can
// (and should) materialise each distinct request once and reuse it —
// exactly what a serving layer's graph registry does.
func Requests(seed uint64, count, minLg, maxLg, distinct int) []Request {
	minLg = max(minLg, 1)
	maxLg = max(maxLg, minLg)
	distinct = max(distinct, 1)
	rng := rand.New(rand.NewPCG(seed, 0x5eed5))
	catalog := make([]Request, distinct)
	for i := range catalog {
		lg := minLg + rng.IntN(maxLg-minLg+1)
		n := 1 << lg
		if lg > 1 {
			n += rng.IntN(n) // power-of-two bucket, uniform within it
		}
		catalog[i] = Request{
			Seed:  seed + uint64(i)*0x9e3779b97f4a7c15,
			N:     n,
			Shape: Shape(i % 3),
		}
	}
	out := make([]Request, count)
	for i := range out {
		out[i] = catalog[rng.IntN(len(catalog))]
	}
	return out
}

// MixedRequests returns a serving workload like Requests whose catalog
// interleaves non-cograph entries — random trees, random sparse graphs
// and near-cographs (one P4-inducing edge) — between the cotree
// instances: two in five entries degrade, so a serving run exercises
// the tree and approximation fallbacks alongside the exact pipeline.
// Every kind spans the full size range.
func MixedRequests(seed uint64, count, minLg, maxLg, distinct int) []Request {
	reqs := Requests(seed, count, minLg, maxLg, distinct)
	// Rewrite a deterministic subset of the catalog in place: every
	// distinct Request value maps to one rewritten value, so the
	// stream's catalog structure (and the registry pattern) survives.
	kindOf := func(r Request) Request {
		h := r.Seed ^ uint64(r.N)*0x9e3779b97f4a7c15
		switch h % 5 {
		case 0:
			r.Kind = KindTree
		case 1:
			switch h >> 8 % 2 {
			case 0:
				r.Kind = KindSparse
			default:
				r.Kind = KindNearCograph
			}
		default:
			return r // cograph, untouched
		}
		r.Shape = Mixed // shapes are cotree silhouettes; irrelevant here
		return r
	}
	for i := range reqs {
		reqs[i] = kindOf(reqs[i])
	}
	return reqs
}

// Catalog returns the distinct requests of a stream in first-appearance
// order. Materialise graphs from this, then serve the stream by lookup.
func Catalog(reqs []Request) []Request {
	seen := make(map[Request]bool, len(reqs))
	var out []Request
	for _, r := range reqs {
		if !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	return out
}
