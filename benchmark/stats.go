package main

import (
	"math"
	"sort"
	"time"

	"pathcover/internal/metrics"
)

// tailLadder lists the percentiles a tail may be reported at, highest
// first, in tenths of a percent.
var tailLadder = []int{999, 990, 950, 900, 800, 750, 500}

// rankOf returns the 1-based nearest rank of percentile p (tenths of a
// percent) among count samples.
func rankOf(p, count int) int {
	r := (p*count + 999) / 1000
	return max(r, 1)
}

// tailPercentile returns the highest percentile of the ladder (tenths of
// a percent) that leaves at least 10 of count samples beyond it, or 500
// (the median) when even that does not.
func tailPercentile(count int) int {
	for _, p := range tailLadder {
		if count-rankOf(p, count) >= 10 {
			return p
		}
	}
	return 500
}

// percentile returns the nearest-rank percentile p (tenths of a percent)
// of sorted.
func percentile(sorted []float64, p int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankOf(p, len(sorted))-1]
}

// median returns the median of xs (the mean of the middle two for an
// even count) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// latencies returns the sorted latencies of samples in ms, failures as
// +Inf.
func latencies(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		if s.status != 200 {
			out[i] = math.Inf(1)
		} else {
			out[i] = ms(s.lat)
		}
	}
	sort.Float64s(out)
	return out
}

// counterDelta returns how much the counter family name (summed over
// its labels) grew between two scrapes of one process.
func counterDelta(before, after *metrics.Exposition, name string) float64 {
	return after.Sum(name) - before.Sum(name)
}

// fleetDelta sums counterDelta over several processes scraped before
// and after, pairwise.
func fleetDelta(before, after []*metrics.Exposition, name string) float64 {
	total := 0.0
	for i := range before {
		total += counterDelta(before[i], after[i], name)
	}
	return total
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
