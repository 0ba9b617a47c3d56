package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sort"
	"sync"

	"pathcover/internal/cotree"
	"pathcover/internal/workload"
)

// kind is the graph family of one request, which fixes the route the
// answer must come back on.
type kind int

const (
	kindCotree  kind = iota // cotree text: exact cograph route
	kindCograph             // edge list of a cograph: recognized, exact cograph route
	kindTree                // edge list of a random tree: exact tree DP
	kindSparse              // random sparse edge list: ½-approximation
	kindNear                // near-cograph edge list: ½-approximation
	kindLibrary             // in-process library call on a cotree-built graph
)

func (k kind) String() string {
	return [...]string{"cotree", "cograph", "tree", "sparse", "near-cograph", "library"}[k]
}

// request is one generated input: the HTTP body (JSON graph spec) plus
// what the generator knows about it.
type request struct {
	body []byte
	kind kind
	n    int
}

// wl is one workload of the benchmark.
type wl struct {
	name string
	// gateway sends the stream through pathcover-gateway over two
	// pathcoverd nodes; library calls the library in process; otherwise
	// the stream goes to one pathcoverd.
	gateway bool
	library bool
	clients int // closed-loop concurrency
	warmup  int // requests of the warm-up pass, sent alone (part of setup_s)
	// minCount is the fewest measured requests; it fixes the tail
	// percentile and the prefix the quality metrics are taken over.
	minCount int
	// maxCount is how many measured requests are generated: the phase
	// ends at maxCount even if the seconds have not run out.
	maxCount int
	// block: the measured count is a multiple of it, so kinds that cycle
	// through the stream come in equal shares.
	block int
	// tracePrefix is how many measured requests the traced pass replays.
	tracePrefix int
	// gen returns warmup+maxCount requests: the warm-up pass first.
	gen func(seed uint64, count int, sz sizes) []request
}

// sizes is the vertex band of a run; tiny runs shrink it for tests.
type sizes struct {
	lo, hi       int // cotree streams
	edgeLo       int // edge-list streams
	edgeHi       int
	libraryN     [2]int
	zipfDistinct int
}

var fullSizes = sizes{lo: 1024, hi: 3270, edgeLo: 2048, edgeHi: 4096, libraryN: [2]int{61440, 69632}, zipfDistinct: 1000}
var tinySizes = sizes{lo: 24, hi: 64, edgeLo: 24, edgeHi: 64, libraryN: [2]int{3000, 5000}, zipfDistinct: 60}

var workloads = []*wl{
	{
		name:    "cotree-cold",
		clients: 2, warmup: 20, minCount: 1000, maxCount: 2400, block: 3, tracePrefix: 120,
		gen: genCotreeCold,
	},
	{
		name:    "zipf-gateway",
		gateway: true,
		clients: 2, warmup: 100, minCount: 1000, maxCount: 4000, block: 1, tracePrefix: 400,
		gen: genZipf,
	},
	{
		name:    "edgelist-sparse",
		clients: 2, warmup: 20, minCount: 1000, maxCount: 3200, block: 4, tracePrefix: 120,
		gen: genEdgelist,
	},
	{
		name:    "library-64k",
		library: true,
		clients: 1, warmup: 6, minCount: 100, maxCount: 600, block: 6, tracePrefix: 6,
		gen: genLibrary,
	},
}

func workloadByName(name string) (*wl, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// mix derives the seed of item i of a stream from the run seed
// (splitmix64 finalizer).
func mix(seed, i uint64) uint64 {
	z := seed + (i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// parallelGen fills out[i] = f(i) for every i on GOMAXPROCS goroutines.
func parallelGen(out []request, f func(i int) request) {
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(out); i += workers {
				out[i] = f(i)
			}
		}(w)
	}
	wg.Wait()
}

// bandSizes draws cotree sizes so that no two requests of one
// deterministic shape coincide: Balanced and Caterpillar cotrees are
// fixed by n and the root label, so those shapes walk a seeded
// permutation of the band; Mixed cotrees draw n uniformly.
type bandSizes struct {
	lo   int
	perm [3][]int
}

func newBandSizes(seed uint64, lo, hi int) *bandSizes {
	b := &bandSizes{lo: lo}
	for s := range b.perm {
		rng := rand.New(rand.NewPCG(seed, uint64(0xba5e+s)))
		b.perm[s] = rng.Perm(hi - lo + 1)
	}
	return b
}

// size returns the n of the k-th cograph of the given shape.
func (b *bandSizes) size(shape workload.Shape, k int, rng *rand.Rand) int {
	p := b.perm[shape]
	if shape == workload.Mixed {
		return b.lo + rng.IntN(len(p))
	}
	return b.lo + p[k%len(p)]
}

func cotreeBody(t *cotree.Tree) []byte {
	b, err := json.Marshal(map[string]string{"cotree": t.String()})
	if err != nil {
		panic(err) // a string map always marshals
	}
	return b
}

func edgeBody(n int, edges [][2]int) []byte {
	b, err := json.Marshal(struct {
		N     int      `json:"n"`
		Edges [][2]int `json:"edges"`
	}{n, edges})
	if err != nil {
		panic(err) // ints always marshal
	}
	return b
}

// genCotreeCold: every request a distinct cograph, shapes cycling
// mixed, balanced, caterpillar.
func genCotreeCold(seed uint64, count int, sz sizes) []request {
	band := newBandSizes(seed, sz.lo, sz.hi)
	out := make([]request, count)
	parallelGen(out, func(i int) request {
		s := mix(seed, uint64(i))
		shape := workload.Shape(i % 3)
		n := band.size(shape, i/3, rand.New(rand.NewPCG(s, 1)))
		return request{body: cotreeBody(workload.Random(s, n, shape)), kind: kindCotree, n: n}
	})
	return out
}

// zipfVariants is how many presentations each base graph appears
// under: the original plus two relabelled twins.
const zipfVariants = 3

// genZipf draws base cographs Zipf(1.1)-distributed by catalog rank and
// one of three presentations uniformly, as workload.ZipfRequests does,
// over a catalog sized in the cotree band.
func genZipf(seed uint64, count int, sz sizes) []request {
	distinct := sz.zipfDistinct
	band := newBandSizes(seed, sz.lo, sz.hi)
	cum := make([]float64, distinct)
	total := 0.0
	for k := range cum {
		total += 1 / math.Pow(float64(k+1), 1.1)
		cum[k] = total
	}
	type pres struct{ base, variant int }
	rng := rand.New(rand.NewPCG(seed, 0x21bf))
	picks := make([]pres, count)
	for i := range picks {
		k := min(sort.SearchFloat64s(cum, rng.Float64()*total), distinct-1)
		picks[i] = pres{k, rng.IntN(zipfVariants)}
	}
	// Materialise each distinct presentation once.
	var uniq []pres
	index := make(map[pres]int)
	for _, p := range picks {
		if _, ok := index[p]; !ok {
			index[p] = len(uniq)
			uniq = append(uniq, p)
		}
	}
	bodies := make([]request, len(uniq))
	parallelGen(bodies, func(j int) request {
		p := uniq[j]
		s := mix(seed, uint64(p.base))
		shape := workload.Shape(p.base % 3)
		n := band.size(shape, p.base/3, rand.New(rand.NewPCG(s, 1)))
		t := workload.Random(s, n, shape)
		if p.variant > 0 {
			t = cotree.Permute(t, s^(uint64(p.variant)*0xd1342543de82ef95))
		}
		return request{body: cotreeBody(t), kind: kindCotree, n: n}
	})
	out := make([]request, count)
	for i, p := range picks {
		out[i] = bodies[index[p]]
	}
	return out
}

// genEdgelist cycles four kinds in equal shares: sparse cographs,
// random trees, random sparse graphs and near-cographs.
func genEdgelist(seed uint64, count int, sz sizes) []request {
	out := make([]request, count)
	parallelGen(out, func(i int) request {
		s := mix(seed, uint64(i))
		rng := rand.New(rand.NewPCG(s, 2))
		n := sz.edgeLo + rng.IntN(sz.edgeHi-sz.edgeLo+1)
		var edges [][2]int
		k := [...]kind{kindCograph, kindTree, kindSparse, kindNear}[i%4]
		switch k {
		case kindCograph:
			edges = sparseCographEdges(rng, s, n)
		case kindTree:
			edges = workload.TreeEdges(s, n)
		case kindSparse:
			edges = workload.SparseEdges(s, n)
		case kindNear:
			edges = relabelEdges(rng, n, workload.NearCographEdges(s, n))
		}
		return request{body: edgeBody(n, edges), kind: k, n: n}
	})
	return out
}

// sparseCographEdges builds a disjoint union of random 2–16-vertex
// cographs on n vertices, with vertex ids and edge order shuffled.
func sparseCographEdges(rng *rand.Rand, seed uint64, n int) [][2]int {
	var edges [][2]int
	for base, c := 0, 0; base < n; c++ {
		k := min(2+rng.IntN(15), n-base)
		t := workload.Random(mix(seed, uint64(c)), k, workload.Mixed)
		for _, e := range cotreeEdgeList(t) {
			edges = append(edges, [2]int{base + e[0], base + e[1]})
		}
		base += k
	}
	return relabelEdges(rng, n, edges)
}

// cotreeEdgeList lists a small cotree's edges: every pair across the
// children of a join node.
func cotreeEdgeList(t *cotree.Tree) [][2]int {
	var edges [][2]int
	var leaves func(u int) []int
	leaves = func(u int) []int {
		if t.Label[u] == cotree.LabelLeaf {
			return []int{t.VertexOf[u]}
		}
		var all []int
		for _, c := range t.Children[u] {
			ls := leaves(c)
			if t.Label[u] == cotree.Label1 {
				for _, a := range all {
					for _, b := range ls {
						edges = append(edges, [2]int{a, b})
					}
				}
			}
			all = append(all, ls...)
		}
		return all
	}
	leaves(t.Root)
	return edges
}

// relabelEdges renames the vertices by a random permutation and shuffles
// the edge order.
func relabelEdges(rng *rand.Rand, n int, edges [][2]int) [][2]int {
	perm := rng.Perm(n)
	out := make([][2]int, len(edges))
	for i, e := range edges {
		out[i] = [2]int{perm[e[0]], perm[e[1]]}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// genLibrary returns the six library graphs (three shapes × two sizes)
// in a fixed cyclic order; request i is graph i mod 6.
func genLibrary(seed uint64, count int, sz sizes) []request {
	six := make([]request, 6)
	parallelGen(six, func(i int) request {
		n := sz.libraryN[i/3]
		return request{body: cotreeBody(workload.Random(mix(seed, uint64(i)), n, workload.Shape(i%3))), kind: kindLibrary, n: n}
	})
	out := make([]request, count)
	for i := range out {
		out[i] = six[i%6]
	}
	return out
}
