// Package metrics is the dependency-free Prometheus-text instrumentation
// layer of the serving tier: counters, labelled counter families,
// fixed-bucket latency histograms, and a text-format writer producing
// exposition any Prometheus scraper (or the strict Parse in this
// package) accepts. internal/daemon and internal/cluster render their
// /metrics endpoints through it; the repository benchmark and the
// serving tests read those endpoints back through Parse.
//
// The package deliberately implements only what the serving tier needs:
// monotone counters, gauges rendered from existing stats snapshots, and
// cumulative histograms. All mutation is atomic — observation on the
// request path never takes a lock — and rendering is a point-in-time
// read, so a scrape concurrent with traffic sees each sample's own
// consistent value (Prometheus semantics; cross-metric consistency is
// not promised, exactly as with any production exporter).
package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotone int64 counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds d (d must be non-negative to keep the counter monotone).
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Value reads the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// CounterVec is a family of counters keyed by one label value (for
// example requests by status, or shed events by reason). Children are
// created on first use and never removed, so a scrape always sees every
// label value that has ever fired.
type CounterVec struct {
	mu   sync.Mutex
	kids map[string]*Counter
}

// With returns the child counter for the given label value.
func (v *CounterVec) With(label string) *Counter {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.kids == nil {
		v.kids = make(map[string]*Counter)
	}
	c := v.kids[label]
	if c == nil {
		c = &Counter{}
		v.kids[label] = c
	}
	return c
}

// Snapshot returns the children in sorted label order.
func (v *CounterVec) Snapshot() []LabelledValue {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make([]LabelledValue, 0, len(v.kids))
	for l, c := range v.kids {
		out = append(out, LabelledValue{Label: l, Value: float64(c.Value())})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Label < out[b].Label })
	return out
}

// LabelledValue is one (label value, sample value) pair of a vec
// snapshot.
type LabelledValue struct {
	Label string
	Value float64
}

// DefBuckets are the default latency histogram bounds in seconds:
// roughly logarithmic from 100µs to ~27s, matched to the serving tier's
// range (sub-millisecond cache hits up to multi-second saturated
// solves). The +Inf bucket is implicit.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 27,
}

// Histogram is a cumulative-bucket latency histogram with atomic
// observation: per-bucket counts, a running sum, and a total count,
// rendered in the Prometheus histogram convention (counts cumulative
// across ascending le bounds, +Inf bucket equal to _count).
type Histogram struct {
	bounds  []float64 // ascending upper bounds, seconds
	counts  []atomic.Int64
	sumNano atomic.Int64
	count   atomic.Int64
}

// NewHistogram builds a histogram over the given ascending bucket
// bounds (nil = DefBuckets).
func NewHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram bounds not ascending: %v", bounds))
		}
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	s := d.Seconds()
	i := sort.SearchFloat64s(h.bounds, s)
	h.counts[i].Add(1)
	h.sumNano.Add(d.Nanoseconds())
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Quantile estimates the q-quantile (0 < q < 1) by linear interpolation
// inside the bucket holding the q-th observation, the standard
// Prometheus histogram_quantile estimate. Returns 0 with ok=false when
// the histogram is empty.
func (h *Histogram) Quantile(q float64) (float64, bool) {
	total := h.count.Load()
	if total == 0 {
		return 0, false
	}
	rank := q * float64(total)
	cum := int64(0)
	lower := 0.0
	for i, bound := range h.bounds {
		prev := cum
		cum += h.counts[i].Load()
		if float64(cum) >= rank {
			frac := (rank - float64(prev)) / float64(cum-prev)
			return lower + (bound-lower)*frac, true
		}
		lower = bound
	}
	// The rank lands in the +Inf bucket: the upper bound is unknown, so
	// report the largest finite bound (the conventional clamp).
	return h.bounds[len(h.bounds)-1], true
}

// Writer renders one exposition document: families in the order they
// are emitted, each as a # HELP / # TYPE pair followed by its samples.
type Writer struct {
	w   io.Writer
	err error
}

// NewWriter wraps an io.Writer. The first write error sticks and is
// reported by Err.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Err returns the first error any write hit.
func (w *Writer) Err() error { return w.err }

func (w *Writer) printf(format string, args ...any) {
	if w.err != nil {
		return
	}
	_, w.err = fmt.Fprintf(w.w, format, args...)
}

// head emits the HELP/TYPE preamble of one family.
func (w *Writer) head(name, help, typ string) {
	w.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// fmtVal renders a sample value: integers without a fraction, floats
// with enough digits to round-trip.
func fmtVal(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// Counter emits a single-sample counter family.
func (w *Writer) Counter(name, help string, v float64) {
	w.head(name, help, "counter")
	w.printf("%s %s\n", name, fmtVal(v))
}

// Gauge emits a single-sample gauge family.
func (w *Writer) Gauge(name, help string, v float64) {
	w.head(name, help, "gauge")
	w.printf("%s %s\n", name, fmtVal(v))
}

// CounterVec emits a labelled counter family: one sample per element,
// each labelled label=<Label>.
func (w *Writer) CounterVec(name, help, label string, vals []LabelledValue) {
	w.head(name, help, "counter")
	for _, lv := range vals {
		w.printf("%s{%s=%q} %s\n", name, label, lv.Label, fmtVal(lv.Value))
	}
}

// GaugeVec emits a labelled gauge family.
func (w *Writer) GaugeVec(name, help, label string, vals []LabelledValue) {
	w.head(name, help, "gauge")
	for _, lv := range vals {
		w.printf("%s{%s=%q} %s\n", name, label, lv.Label, fmtVal(lv.Value))
	}
}

// Histogram emits one histogram family under the given name, with an
// optional extra label rendered on every sample (pass "" for none;
// labels must be pre-rendered `key="value"` text).
func (w *Writer) Histogram(name, help string, hs map[string]*Histogram, label string) {
	w.head(name, help, "histogram")
	keys := make([]string, 0, len(hs))
	for k := range hs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		h := hs[k]
		lbl := func(le string) string {
			if label == "" {
				return fmt.Sprintf(`le=%q`, le)
			}
			return fmt.Sprintf(`%s=%q,le=%q`, label, k, le)
		}
		cum := int64(0)
		for i, bound := range h.bounds {
			cum += h.counts[i].Load()
			w.printf("%s_bucket{%s} %d\n", name, lbl(fmtVal(bound)), cum)
		}
		cum += h.counts[len(h.bounds)].Load()
		w.printf("%s_bucket{%s} %d\n", name, lbl("+Inf"), cum)
		suffix := ""
		if label != "" {
			suffix = fmt.Sprintf("{%s=%q}", label, k)
		}
		w.printf("%s_sum%s %g\n", name, suffix, float64(h.sumNano.Load())/1e9)
		w.printf("%s_count%s %d\n", name, suffix, cum)
	}
}

// OpsHandler returns the operational mux that both binaries serve on
// their -ops port: the metrics handler h at /metrics plus the
// net/http/pprof endpoints. Profiling is reachable only here, never on
// a serving port, so exposing the serving port to untrusted clients
// does not expose pprof.
func OpsHandler(h http.HandlerFunc) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", h)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
