package cograph

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"pathcover/internal/cotree"
	"pathcover/internal/workload"
)

// hasInducedP4 is the brute-force oracle on at most 64 vertices: a P4
// a-b-c-d exists iff some edge bc has a neighbour a of b outside N[c]
// and a neighbour d of c outside N[b] with a and d non-adjacent.
func hasInducedP4(n int, edges [][2]int) bool {
	var nb [64]uint64
	for _, e := range edges {
		if e[0] != e[1] {
			nb[e[0]] |= 1 << e[1]
			nb[e[1]] |= 1 << e[0]
		}
	}
	for b := 0; b < n; b++ {
		for c := b + 1; c < n; c++ {
			if nb[b]>>c&1 == 0 {
				continue
			}
			as := nb[b] &^ nb[c] &^ (1 << c)
			ds := nb[c] &^ nb[b] &^ (1 << b)
			for ; as != 0; as &= as - 1 {
				if ds&^nb[bits.TrailingZeros64(as)] != 0 {
					return true
				}
			}
		}
	}
	return false
}

// presentations returns the edge set in several wire forms: as given,
// shuffled, with every edge twice, with endpoints swapped, and all of
// these at once plus self-loops. Recognition must not tell them apart.
func presentations(rng *rand.Rand, n int, edges [][2]int) [][][2]int {
	shuffled := slices.Clone(edges)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	doubled := append(slices.Clone(edges), edges...)
	swapped := make([][2]int, len(edges))
	for i, e := range edges {
		swapped[i] = [2]int{e[1], e[0]}
	}
	var mixed [][2]int
	for _, e := range edges {
		for k := rng.IntN(3); k >= 0; k-- {
			if rng.IntN(2) == 0 {
				e[0], e[1] = e[1], e[0]
			}
			mixed = append(mixed, e)
		}
	}
	for k := rng.IntN(3); k > 0; k-- {
		v := rng.IntN(n)
		mixed = append(mixed, [2]int{v, v})
	}
	rng.Shuffle(len(mixed), func(i, j int) { mixed[i], mixed[j] = mixed[j], mixed[i] })
	return [][][2]int{edges, shuffled, doubled, swapped, mixed}
}

// normalized returns the edge set as sorted {u < v} pairs.
func normalized(n int, edges [][2]int) [][2]int {
	a, err := NewAdjacency(n, edges)
	if err != nil {
		panic(err)
	}
	return a.Edges()
}

// checkRecognize checks the recognizer on one edge set: it accepts
// exactly when there is no induced P4, an accepted cotree is valid and
// gives back the input edge set through its names, and every
// presentation of the edge set yields the identical tree.
func checkRecognize(t testing.TB, n int, edges [][2]int, seed uint64) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 0xc0))
	want := normalized(n, edges)
	p4 := hasInducedP4(n, want)
	var first *cotree.Tree
	for i, pres := range presentations(rng, n, edges) {
		a, err := NewAdjacency(n, pres)
		if err != nil {
			t.Fatalf("presentation %d: %v", i, err)
		}
		tr, err := RecognizeAdjacency(a, nil)
		if (err != nil) != p4 {
			t.Fatalf("n=%d edges=%v presentation %d: recognize err=%v, induced P4=%v", n, want, i, err, p4)
		}
		if p4 {
			continue
		}
		if first == nil {
			first = tr
			if err := tr.Validate(); err != nil {
				t.Fatalf("n=%d edges=%v: invalid cotree %s: %v", n, want, tr, err)
			}
			if got := originalEdges(t, tr); !slices.Equal(got, want) {
				t.Fatalf("n=%d: cotree %s has edges %v, input %v", n, tr, got, want)
			}
			continue
		}
		if tr.String() != first.String() || !reflect.DeepEqual(tr, first) {
			t.Fatalf("n=%d edges=%v: presentation %d gives %s, presentation 0 gives %s", n, want, i, tr, first)
		}
	}
}

// originalEdges maps a recognized cotree's edge set back onto the
// input numbering through its "v<k>" names.
func originalEdges(t testing.TB, tr *cotree.Tree) [][2]int {
	t.Helper()
	orig := make([]int, tr.NumVertices())
	for v := range orig {
		k, err := strconv.Atoi(strings.TrimPrefix(tr.Name(v), "v"))
		if err != nil {
			t.Fatalf("unexpected vertex name %q", tr.Name(v))
		}
		orig[v] = k
	}
	var edges [][2]int
	for _, e := range normalized(tr.NumVertices(), FromCotree(tr).edges) {
		edges = append(edges, [2]int{orig[e[0]], orig[e[1]]})
	}
	return normalized(tr.NumVertices(), edges)
}

// flip toggles the pair {u, v} in a normalized edge set.
func flip(edges [][2]int, u, v int) [][2]int {
	if u > v {
		u, v = v, u
	}
	if i := slices.Index(edges, [2]int{u, v}); i >= 0 {
		return slices.Delete(slices.Clone(edges), i, i+1)
	}
	return append(slices.Clone(edges), [2]int{u, v})
}

// randomCograph is a random cograph on n vertices in a random
// numbering.
func randomCograph(seed uint64, n int) [][2]int {
	tr := cotree.Permute(workload.Random(seed, n, workload.Shape(seed%3)), seed)
	return normalized(n, FromCotree(tr).edges)
}

func TestRecognizeAllSmallGraphs(t *testing.T) {
	for n := 1; n <= 6; n++ {
		var pairs [][2]int
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				pairs = append(pairs, [2]int{u, v})
			}
		}
		for mask := 0; mask < 1<<len(pairs); mask++ {
			var edges [][2]int
			for i, p := range pairs {
				if mask>>i&1 != 0 {
					edges = append(edges, p)
				}
			}
			checkRecognize(t, n, edges, uint64(mask))
		}
	}
}

func TestRecognizeProperties(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.IntN(64)
		seed := rng.Uint64()
		var edges [][2]int
		switch trial % 4 {
		case 0: // a cograph
			edges = randomCograph(seed, n)
		case 1: // a cograph with one pair toggled: usually a few P4s
			edges = randomCograph(seed, n)
			if n > 1 {
				u, v := rng.IntN(n), rng.IntN(n-1)
				if v >= u {
					v++
				}
				edges = flip(edges, u, v)
			}
		case 2: // unions of 4-cliques with one bridge, renumbered
			perm := rng.Perm(n)
			for _, e := range workload.NearCographEdges(seed, n) {
				edges = append(edges, [2]int{perm[e[0]], perm[e[1]]})
			}
		default: // a random graph of random density
			p := rng.Float64()
			for u := 0; u < n; u++ {
				for v := u + 1; v < n; v++ {
					if rng.Float64() < p {
						edges = append(edges, [2]int{u, v})
					}
				}
			}
		}
		checkRecognize(t, n, edges, seed)
	}
}

// FuzzRecognize checks the properties of checkRecognize on a random
// cograph with the fuzzer's pairs toggled: no pairs keeps it a
// cograph, a few usually plant induced P4s.
func FuzzRecognize(f *testing.F) {
	f.Add(uint8(4), uint64(1), []byte{})
	f.Add(uint8(4), uint64(2), []byte{0, 1, 1, 2, 2, 3})
	f.Add(uint8(12), uint64(3), []byte{3, 7})
	f.Add(uint8(63), uint64(4), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Fuzz(func(t *testing.T, size uint8, seed uint64, pairs []byte) {
		n := 1 + int(size)%64
		edges := randomCograph(seed, n)
		for i := 0; i+1 < len(pairs) && i < 64; i += 2 {
			if u, v := int(pairs[i])%n, int(pairs[i+1])%n; u != v {
				edges = flip(edges, u, v)
			}
		}
		checkRecognize(t, n, edges, seed)
	})
}

func TestNewAdjacency(t *testing.T) {
	a, err := NewAdjacency(5, [][2]int{{3, 1}, {1, 3}, {2, 2}, {0, 4}, {4, 1}, {1, 0}, {3, 1}})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{{1, 4}, {0, 3, 4}, nil, {1}, {0, 1}}
	for v, nb := range want {
		if got := a.Neighbors(v); !slices.Equal(got, nb) {
			t.Errorf("Neighbors(%d) = %v, want %v", v, got, nb)
		}
	}
	if got := a.Edges(); !slices.Equal(got, [][2]int{{0, 1}, {0, 4}, {1, 3}, {1, 4}}) {
		t.Errorf("Edges() = %v", got)
	}
	if _, err := NewAdjacency(3, [][2]int{{0, 3}}); err == nil {
		t.Error("out-of-range endpoint accepted")
	}
	if _, err := NewAdjacency(3, [][2]int{{-1, 0}}); err == nil {
		t.Error("negative endpoint accepted")
	}
	bad := NewGraph(2)
	bad.AddEdge(0, 2)
	if _, err := Recognize(bad, nil); err == nil {
		t.Error("Recognize accepted an edge out of range")
	}
}

// thresholdEdges is a threshold graph on n vertices in a random
// numbering: in creation order each vertex is isolated or dominating
// with probability ½, so m is about n²/4 and the cotree is a path of
// alternating labels, the deepest shape there is.
func thresholdEdges(seed uint64, n int) [][2]int {
	rng := rand.New(rand.NewPCG(seed, 0x7e5))
	id := rng.Perm(n)
	var edges [][2]int
	for i := 1; i < n; i++ {
		if rng.IntN(2) == 0 {
			continue
		}
		for j := 0; j < i; j++ {
			edges = append(edges, [2]int{id[i], id[j]})
		}
	}
	return edges
}

// recognizeEdges runs NewAdjacency plus RecognizeAdjacency and checks
// the graph is accepted.
func recognizeEdges(t testing.TB, n int, edges [][2]int) {
	a, err := NewAdjacency(n, edges)
	if err == nil {
		_, err = RecognizeAdjacency(a, nil)
	}
	if err != nil {
		t.Fatalf("threshold graph n=%d: %v", n, err)
	}
}

// TestRecognizeThresholdScaling is the linear-time check on the deepest
// cotrees: doubling n quadruples m, and the time per edge must stay
// within 1.5x; a per-level recursion, O(depth·m) with depth about n/2,
// would double it. The two sizes are timed in alternation, best of
// seven, so that load from other tests hits both alike.
func TestRecognizeThresholdScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("times recognition of 2.8M edges")
	}
	sizes := [2]int{1500, 3000}
	var edges [2][][2]int
	best := [2]time.Duration{1 << 62, 1 << 62}
	for i, n := range sizes {
		edges[i] = thresholdEdges(1, n)
	}
	for range 7 {
		for i, n := range sizes {
			start := time.Now()
			recognizeEdges(t, n, edges[i])
			best[i] = min(best[i], time.Since(start))
		}
	}
	var nsPerEdge [2]float64
	for i := range sizes {
		nsPerEdge[i] = float64(best[i].Nanoseconds()) / float64(len(edges[i]))
	}
	t.Logf("ns/edge: n=1500 %.1f, n=3000 %.1f", nsPerEdge[0], nsPerEdge[1])
	if nsPerEdge[1] > 1.5*nsPerEdge[0] {
		t.Errorf("ns/edge grew from %.1f at n=1500 to %.1f at n=3000", nsPerEdge[0], nsPerEdge[1])
	}
}

func BenchmarkRecognizeThreshold(b *testing.B) {
	for _, n := range []int{1500, 3000} {
		edges := thresholdEdges(1, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				recognizeEdges(b, n, edges)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(edges)), "ns/edge")
		})
	}
}
