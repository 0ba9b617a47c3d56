package pathcover

import (
	"errors"
	"runtime"
	"testing"

	"pathcover/internal/core"
	"pathcover/internal/workload"
)

// The overflow guard: sizes no representation can hold are rejected with
// a typed error (FromEdges) or a typed panic (the generators), never
// silently truncated in the narrow index paths.

func TestFromEdgesSizeGuard(t *testing.T) {
	over := MaxVertices // runtime increment: wraps (negative) on 32-bit hosts,
	over++              // exceeds MaxVertices on 64-bit ones; invalid either way
	for _, n := range []int{-1, over} {
		_, err := FromEdges(n, nil, nil)
		var se *SizeError
		if !errors.As(err, &se) {
			t.Fatalf("FromEdges(%d) error = %v, want *SizeError", n, err)
		}
		if se.N != n || se.Max != MaxVertices {
			t.Fatalf("FromEdges(%d) SizeError = %+v", n, se)
		}
	}
	if _, err := FromEdges(3, [][2]int{{0, 1}}, nil); err != nil {
		t.Fatalf("FromEdges(3) unexpectedly failed: %v", err)
	}
}

// TestIndexWidthForceReject drives the public width options through a
// Solver: every forced width an input fits must produce the cover the
// default produces, and a forced narrow width the input does not fit
// must surface the typed *WidthError (public alias of core's) rather
// than truncate. RouteWidth must agree with the dispatch.
func TestIndexWidthForceReject(t *testing.T) {
	g := Random(77, 600, workload.Mixed)
	ref, err := g.MinimumPathCover()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []IndexWidth{Width16, Width32, Width64, WidthAuto} {
		cov, err := g.MinimumPathCover(WithIndexWidth(w))
		if err != nil {
			t.Fatalf("width %v: %v", w, err)
		}
		if cov.NumPaths != ref.NumPaths {
			t.Fatalf("width %v: %d paths, want %d", w, cov.NumPaths, ref.NumPaths)
		}
	}

	big := Random(78, core.MaxInt16Vertices+1, workload.Mixed)
	var we *WidthError
	if _, err := big.MinimumPathCover(WithIndexWidth(Width16)); !errors.As(err, &we) {
		t.Fatalf("forced Width16 past the bound: err = %v, want *WidthError", err)
	} else if we.N != core.MaxInt16Vertices+1 || we.Max != core.MaxInt16Vertices {
		t.Fatalf("WidthError = %+v", we)
	}
	if _, err := big.MinimumPathCover(WithIndexWidth(Width32)); err != nil {
		t.Fatalf("forced Width32 on an int32-sized input: %v", err)
	}

	if got := RouteWidth(core.MaxInt16Vertices); got != "int16" {
		t.Fatalf("RouteWidth(int16 bound) = %q", got)
	}
	if got := RouteWidth(core.MaxInt16Vertices + 1); got != "int32" {
		t.Fatalf("RouteWidth(past int16 bound) = %q", got)
	}
	if got := RouteWidth(core.MaxNarrowVertices + 1); got != "int" {
		t.Fatalf("RouteWidth(past int32 bound) = %q", got)
	}
}

func TestGeneratorSizeGuard(t *testing.T) {
	defer func() {
		r := recover()
		se, ok := r.(*SizeError)
		if !ok {
			t.Fatalf("Empty(-3) panicked with %v, want *SizeError", r)
		}
		if se.N != -3 {
			t.Fatalf("Empty(-3) SizeError = %+v", se)
		}
	}()
	Empty(-3)
}

// TestFromEdgesAnyAllocationLinear pins the memory bound of edge-list
// input: building a graph allocates at most 512 bytes per vertex plus
// edge, however short the request that declares it. (The first case
// once asked for a 125 GB adjacency matrix.)
func TestFromEdgesAnyAllocationLinear(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two 1M-vertex graphs")
	}
	const n = 1_000_000
	var c4s [][2]int // disjoint 4-cycles: a sparse cograph with m = n
	for b := 0; b < n; b += 4 {
		c4s = append(c4s, [2]int{b, b + 2}, [2]int{b, b + 3}, [2]int{b + 1, b + 2}, [2]int{b + 1, b + 3})
	}
	for _, tc := range []struct {
		name  string
		edges [][2]int
	}{{"edgeless", nil}, {"disjoint C4s", c4s}} {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		g, err := FromEdgesAny(n, tc.edges, nil)
		runtime.ReadMemStats(&m1)
		if err != nil || !g.IsCograph() || g.N() != n {
			t.Fatalf("%s: FromEdgesAny: %v", tc.name, err)
		}
		perItem := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n+len(tc.edges))
		t.Logf("%s: %.0f B per vertex+edge", tc.name, perItem)
		if perItem > 512 {
			t.Errorf("%s: allocated %.0f B per vertex+edge, want <= 512", tc.name, perItem)
		}
	}
}
