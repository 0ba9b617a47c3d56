package main

import (
	"math"
	"testing"

	"pathcover/internal/metrics"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct{ count, want int }{
		{10000, 999}, // rank 9990: 10 beyond
		{9999, 990},  // p99.9 leaves 9
		{1000, 990},  // rank 990: 10 beyond
		{999, 950},   // p99 leaves 9
		{200, 950},   // rank 190: 10 beyond
		{100, 900},   // rank 90: 10 beyond
		{99, 800},    // p90 leaves 9
		{50, 800},    // rank 40: 10 beyond
		{5, 500},     // nothing leaves 10: the median
	} {
		if got := tailPercentile(c.count); got != c.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", c.count, got, c.want)
		}
		if p := tailPercentile(c.count); p != 500 && c.count-rankOf(p, c.count) < 10 {
			t.Errorf("count %d: p%d leaves %d samples beyond", c.count, p, c.count-rankOf(p, c.count))
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := percentile(xs, 990); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := percentile(xs, 500); got != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	lat := latencies([]sample{{status: 200, lat: 2e6}, {status: 503, lat: 1e6}, {status: 200, lat: 1e6}})
	if lat[0] != 1 || lat[1] != 2 || !math.IsInf(lat[2], 1) {
		t.Errorf("latencies = %v, want [1 2 +Inf]: a failure is infinitely slow", lat)
	}
}

func TestCounterDelta(t *testing.T) {
	parse := func(text string) *metrics.Exposition {
		t.Helper()
		e, err := metrics.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	const head = "# TYPE pathcoverd_cache_hits_total counter\n# TYPE pathcover_gateway_node_hedged_total counter\n"
	b0 := parse(head + "pathcoverd_cache_hits_total 5\npathcover_gateway_node_hedged_total{node=\"n0\"} 1\npathcover_gateway_node_hedged_total{node=\"n1\"} 2\n")
	a0 := parse(head + "pathcoverd_cache_hits_total 12\npathcover_gateway_node_hedged_total{node=\"n0\"} 4\npathcover_gateway_node_hedged_total{node=\"n1\"} 2\n")
	b1 := parse(head + "pathcoverd_cache_hits_total 100\n")
	a1 := parse(head + "pathcoverd_cache_hits_total 101\n")
	if got := counterDelta(b0, a0, "pathcoverd_cache_hits_total"); got != 7 {
		t.Errorf("unlabelled delta = %v, want 7", got)
	}
	if got := counterDelta(b0, a0, "pathcover_gateway_node_hedged_total"); got != 3 {
		t.Errorf("delta summed over labels = %v, want 3", got)
	}
	if got := counterDelta(b1, a1, "pathcover_gateway_node_hedged_total"); got != 0 {
		t.Errorf("absent family delta = %v, want 0", got)
	}
	before := []*metrics.Exposition{b0, b1}
	after := []*metrics.Exposition{a0, a1}
	if got := fleetDelta(before, after, "pathcoverd_cache_hits_total"); got != 8 {
		t.Errorf("fleet delta = %v, want 8", got)
	}
}

func TestDispenserStopsOnBlockBoundary(t *testing.T) {
	d := &dispenser{stop: 100, minCount: 5, block: 4}
	var got []int
	for {
		i, ok := d.take()
		if !ok {
			break
		}
		got = append(got, i)
	}
	// The deadline is long past: the phase ends at the first multiple of
	// 4 at or after minCount.
	if len(got) != 8 || got[7] != 7 {
		t.Errorf("took %v, want 0..7", got)
	}
}
