package workload

import "testing"

func TestRequestsDeterministic(t *testing.T) {
	a := Requests(7, 100, 4, 8, 10)
	b := Requests(7, 100, 4, 8, 10)
	if len(a) != 100 {
		t.Fatalf("len %d, want 100", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs across identical calls: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := Requests(8, 100, 4, 8, 10)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced an identical stream")
	}
}

func TestRequestsRangesAndCatalog(t *testing.T) {
	reqs := Requests(3, 400, 5, 9, 12)
	for i, r := range reqs {
		if r.N < 1<<5 || r.N >= 1<<10 {
			t.Fatalf("request %d: n=%d outside [2^5, 2^10)", i, r.N)
		}
	}
	cat := Catalog(reqs)
	if len(cat) > 12 {
		t.Fatalf("catalog has %d entries, want <= 12 distinct", len(cat))
	}
	if len(cat) < 2 {
		t.Fatalf("catalog degenerate: %d entries", len(cat))
	}
	// Streams must actually re-query catalog entries (that is the point).
	if len(cat) == len(reqs) {
		t.Fatal("no request repetition in a 400-draw stream over 12 graphs")
	}
	// Materialised trees are consistent with the request sizes.
	for _, r := range cat[:3] {
		if got := r.Tree().NumVertices(); got != r.N {
			t.Fatalf("Tree() has %d vertices, request says %d", got, r.N)
		}
	}
}
