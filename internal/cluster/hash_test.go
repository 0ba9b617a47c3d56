package cluster

import "testing"

// TestHash64Vectors pins the in-repo implementation to the published
// XXH64 test vectors (seed 0), so it is the real algorithm, not a
// lookalike — ring placements stay comparable with any external
// tooling that speaks xxhash.
func TestHash64Vectors(t *testing.T) {
	cases := []struct {
		in   string
		want uint64
	}{
		{"", 0xef46db3751d8e999},
		{"a", 0xd24ec4f1a98c6e5b},
		{"abc", 0x44bc2cf5ad770999},
		{"message digest", 0x066ed728fceeb3be},
		{"abcdefghijklmnopqrstuvwxyz", 0xcfe1f278fa89835c},
		{"12345678901234567890123456789012345678901234567890123456789012345678901234567890", 0xe04a477f19ee145d},
		{"Nobody inspects the spammish repetition", 0xfbcea83c8a378bf1},
	}
	for _, c := range cases {
		if got := Hash64String(c.in); got != c.want {
			t.Errorf("Hash64(%q) = %016x, want %016x", c.in, got, c.want)
		}
		if got := Hash64([]byte(c.in)); got != c.want {
			t.Errorf("Hash64 bytes(%q) = %016x, want %016x", c.in, got, c.want)
		}
	}
}

// TestRingDistributionAndStability: vnode placement spreads keys
// roughly evenly, removal moves only the removed member's keys, and
// Owners returns distinct members in deterministic order.
func TestRingDistribution(t *testing.T) {
	r := NewRing(128)
	names := []string{"n0", "n1", "n2"}
	for _, n := range names {
		r.Add(n)
	}
	const keys = 30000
	count := map[string]int{}
	owner := make([]string, keys)
	for i := 0; i < keys; i++ {
		k := Hash64String(string(rune(i)) + "key")
		o := r.Owner(k)
		owner[i] = o
		count[o]++
	}
	for _, n := range names {
		frac := float64(count[n]) / keys
		if frac < 0.20 || frac > 0.47 {
			t.Errorf("member %s owns %.1f%% of keys; want roughly a third", n, 100*frac)
		}
	}

	// Removing n1 must not move any key that n0 or n2 already owned.
	r.Remove("n1")
	for i := 0; i < keys; i++ {
		if owner[i] == "n1" {
			continue
		}
		k := Hash64String(string(rune(i)) + "key")
		if got := r.Owner(k); got != owner[i] {
			t.Fatalf("key %d moved %s -> %s on unrelated removal", i, owner[i], got)
		}
	}
	r.Add("n1")

	owners := r.Owners(12345, 3)
	if len(owners) != 3 {
		t.Fatalf("Owners returned %v, want 3 distinct members", owners)
	}
	seen := map[string]bool{}
	for _, o := range owners {
		if seen[o] {
			t.Fatalf("Owners returned duplicate %q: %v", o, owners)
		}
		seen[o] = true
	}
	again := r.Owners(12345, 3)
	for i := range owners {
		if owners[i] != again[i] {
			t.Fatalf("Owners not deterministic: %v vs %v", owners, again)
		}
	}
}

// TestRouteKeyOverCapKeysByBytes: an edge list over the vertex cap is
// keyed by its raw bytes and reported with its declared size, without
// building the graph (a 2^30-vertex build would allocate gigabytes).
func TestRouteKeyOverCapKeysByBytes(t *testing.T) {
	body := []byte(`{"n":1073741824,"edges":[]}`)
	var key uint64
	var n int
	allocs := testing.AllocsPerRun(3, func() { key, n = routeKey(body, 1<<20) })
	if key != Hash64(body) || n != 1<<30 {
		t.Fatalf("routeKey = %x, %d; want the byte hash %x and n 2^30", key, n, Hash64(body))
	}
	if allocs > 20 {
		t.Fatalf("routeKey allocated %v times for an over-cap body", allocs)
	}
	small := []byte(`{"n":4,"edges":[[0,1],[1,2],[2,3],[3,0]]}`)
	if key, n := routeKey(small, 1<<20); key == Hash64(small) || n != 4 {
		t.Fatalf("an in-cap edge list keyed by bytes (n=%d)", n)
	}
}
