package cluster_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"pathcover/internal/cluster"
	"pathcover/internal/daemon"
	"pathcover/internal/metrics"
)

// TestGatewayMetricsGoldenParse sends a known mix of /cover, /batch and
// one malformed request through a 2-node cluster, scrapes the
// gateway's /metrics, parses it strictly and checks that the counters
// account for exactly that traffic.
func TestGatewayMetricsGoldenParse(t *testing.T) {
	opts := fastOpts()
	opts.ProbeInterval = time.Hour // no probe outcome may move a counter
	_, _, base := testCluster(t, 2, opts, nil)
	graphs := makeGraphs(t, 24)

	// 6 covers, 1 batch of 3 graphs per node, 1 malformed cover (400).
	// A batch counts one routed answer per ring owner of its items.
	for i, tg := range graphs[:6] {
		if err := postCover(base, tg); err != nil {
			t.Fatalf("cover %d: %v", i, err)
		}
	}
	ring := testRing(2)
	perOwner := make(map[string]int)
	specs := make([]map[string]any, 0, 6)
	for _, tg := range graphs[6:] {
		if owner := ring.Owner(cluster.KeyOf(tg.g)); perOwner[owner] < 3 {
			perOwner[owner]++
			specs = append(specs, map[string]any{"cotree": tg.text})
		}
	}
	if len(specs) != 6 {
		t.Fatalf("found %d batch graphs, want 3 per node: %v", len(specs), perOwner)
	}
	body, _ := json.Marshal(map[string]any{"graphs": specs})
	resp, err := http.Post(base+"/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: HTTP %d", resp.StatusCode)
	}
	resp, err = http.Post(base+"/cover", "application/json", strings.NewReader(`{"cotree":"((("}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed cover: HTTP %d, want 400", resp.StatusCode)
	}

	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: HTTP %d, %v", resp.StatusCode, err)
	}
	exp, err := metrics.Parse(string(text))
	if err != nil {
		t.Fatalf("golden parse failed: %v\n%s", err, text)
	}
	for key, want := range map[string]float64{
		"pathcover_gateway_requests_total":    8,
		"pathcover_gateway_routed_total":      8, // 6 covers + 2 sub-batches
		"pathcover_gateway_batch_items_total": 6,
		"pathcover_gateway_retries_total":     0,
	} {
		if got, ok := exp.Value(key); !ok || got != want {
			t.Errorf("%s = %v (present=%v), want %v", key, got, ok, want)
		}
	}
	if got, want := exp.Sum("pathcover_gateway_node_routed_total"), exp.Samples["pathcover_gateway_routed_total"]; got != want {
		t.Errorf("node_routed_total sums to %v, routed_total is %v", got, want)
	}
	// Exactly these families, and no latency-steering or per-attempt
	// duplicate beside them.
	fams := make([]string, 0, len(exp.Types))
	for fam := range exp.Types {
		fams = append(fams, strings.TrimPrefix(fam, "pathcover_gateway_"))
	}
	sort.Strings(fams)
	want := "batch_items_total ejections_total node_ejections_total node_healthy node_retried_total " +
		"node_routed_total readmissions_total requests_total rerouted_total retries_total routed_total"
	if got := strings.Join(fams, " "); got != want {
		t.Errorf("gateway families:\n got %s\nwant %s", got, want)
	}
}

// TestOpsHandlerOnlyOnOpsPort: the shared ops mux serves /metrics and
// pprof, while neither binary's serving handler answers pprof or the
// JSON stats page that /metrics replaced.
func TestOpsHandlerOnlyOnOpsPort(t *testing.T) {
	ds := daemon.New(nodeConfig())
	defer ds.Close()
	gw := cluster.New([]string{"http://127.0.0.1:1"}, cluster.Options{})
	defer gw.Close()
	get := func(h http.Handler, path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec
	}
	for name, h := range map[string]http.Handler{"pathcoverd": ds.Handler(), "pathcover-gateway": gw.Handler()} {
		for _, page := range []string{"debug/pprof/", "stats"} {
			path := "/" + page
			if code := get(h, path).Code; code != http.StatusNotFound {
				t.Errorf("%s serving port: GET %s = HTTP %d, want 404", name, path, code)
			}
		}
	}
	for family, h := range map[string]http.HandlerFunc{
		"pathcoverd_shards":                ds.ServeMetrics,
		"pathcover_gateway_requests_total": gw.ServeMetrics,
	} {
		ops := metrics.OpsHandler(h)
		rec := get(ops, "/metrics")
		exp, err := metrics.Parse(rec.Body.String())
		if rec.Code != http.StatusOK || err != nil {
			t.Fatalf("ops /metrics: HTTP %d, parse: %v", rec.Code, err)
		}
		if _, ok := exp.Types[family]; !ok {
			t.Errorf("ops /metrics lacks %s", family)
		}
		if code := get(ops, "/debug/pprof/cmdline").Code; code != http.StatusOK {
			t.Errorf("ops /debug/pprof/cmdline: HTTP %d, want 200", code)
		}
	}
}
