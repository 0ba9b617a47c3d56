package daemon

import (
	"bytes"
	"encoding/json"

	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"pathcover"
	"pathcover/internal/metrics"
)

// postBody sends a JSON body and returns the status, response payload
// and headers.
func postBody(t *testing.T, base, path string, body any) (int, []byte, http.Header) {
	t.Helper()
	blob, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(base+path, "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s: read: %v", path, err)
	}
	return resp.StatusCode, payload, resp.Header
}

// scrape pulls /metrics and parses it strictly — any malformed line,
// missing TYPE or broken histogram invariant fails the test.
func scrape(t *testing.T, base string) *metrics.Exposition {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET /metrics: read: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	exp, err := metrics.Parse(string(payload))
	if err != nil {
		t.Fatalf("golden parse failed: %v\n%s", err, payload)
	}
	return exp
}

func cotreeSpec(seed uint64, n int) map[string]any {
	return map[string]any{"cotree": pathcover.Random(seed, n, pathcover.Balanced).String()}
}

// TestMetricsGoldenParse serves a known request mix, scrapes /metrics,
// and checks both that the exposition parses strictly and that the
// counters account for exactly the traffic sent. It then hammers the
// server concurrently (meaningful under -race) and asserts every
// counter-typed sample is monotone across scrapes.
func TestMetricsGoldenParse(t *testing.T) {
	var logBuf bytes.Buffer
	s := New(Config{Shards: 2, CacheMB: 4, LogSample: 1, LogOutput: &logBuf})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// 6 distinct covers, 1 repeat (cache hit), 1 malformed (400).
	for i := uint64(0); i < 6; i++ {
		if code, body, _ := postBody(t, srv.URL, "/cover", cotreeSpec(i+1, 64)); code != http.StatusOK {
			t.Fatalf("cover %d: HTTP %d: %s", i, code, body)
		}
	}
	if code, _, _ := postBody(t, srv.URL, "/cover", cotreeSpec(1, 64)); code != http.StatusOK {
		t.Fatalf("repeat cover: HTTP %d", code)
	}
	if code, _, _ := postBody(t, srv.URL, "/cover", map[string]any{"cotree": "((("}); code != http.StatusBadRequest {
		t.Fatalf("malformed cover: HTTP %d, want 400", code)
	}
	if code, _, _ := postBody(t, srv.URL, "/hamiltonian", cotreeSpec(9, 48)); code != http.StatusOK {
		t.Fatalf("hamiltonian: HTTP %d", code)
	}
	if code, _, _ := postBody(t, srv.URL, "/batch", map[string]any{
		"graphs": []map[string]any{cotreeSpec(11, 32), cotreeSpec(12, 40)},
	}); code != http.StatusOK {
		t.Fatalf("batch: HTTP %d", code)
	}
	code, payload, _ := postBody(t, srv.URL, "/graphs", cotreeSpec(13, 56))
	if code != http.StatusOK {
		t.Fatalf("register: HTTP %d", code)
	}
	var reg struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(payload, &reg); err != nil || reg.ID == "" {
		t.Fatalf("register response %q: %v", payload, err)
	}

	exp := scrape(t, srv.URL)
	if got := exp.Types["pathcoverd_requests_total"]; got != "counter" {
		t.Errorf("pathcoverd_requests_total TYPE = %q, want counter", got)
	}
	if got := exp.Types["pathcoverd_shards"]; got != "gauge" {
		t.Errorf("pathcoverd_shards TYPE = %q, want gauge", got)
	}
	if got := exp.Types["pathcoverd_request_seconds"]; got != "histogram" {
		t.Errorf("pathcoverd_request_seconds TYPE = %q, want histogram", got)
	}
	for key, want := range map[string]float64{
		`pathcoverd_requests_total{endpoint="/cover"}`:       8, // 6 + repeat + malformed
		`pathcoverd_requests_total{endpoint="/hamiltonian"}`: 1,
		`pathcoverd_requests_total{endpoint="/batch"}`:       1,
		`pathcoverd_requests_total{endpoint="/graphs"}`:      1,
		`pathcoverd_responses_total{code="400"}`:             1,
		`pathcoverd_request_seconds_count{tier="batch"}`:     1,
		`pathcoverd_width_route_total{width="int16"}`:        7, // solved covers only: 6 + repeat
		`pathcoverd_shards`:                                  2,
	} {
		if got, ok := exp.Value(key); !ok || got != want {
			t.Errorf("%s = %v (present=%v), want %v", key, got, ok, want)
		}
	}
	// 8 cover + 1 hamiltonian + 1 register = 10 interactive requests.
	if got, _ := exp.Value(`pathcoverd_request_seconds_count{tier="interactive"}`); got != 10 {
		t.Errorf("interactive histogram count = %v, want 10", got)
	}
	if hits, ok := exp.Value("pathcoverd_cache_hits_total"); !ok || hits < 1 {
		t.Errorf("cache hits = %v (present=%v), want >= 1", hits, ok)
	}

	// A P4 edge list is no cograph: the exact tree route serves it, and
	// the cache never sees it.
	if code, body, _ := postBody(t, srv.URL, "/cover", map[string]any{"n": 4, "edges": [][2]int{{0, 1}, {1, 2}, {2, 3}}}); code != http.StatusOK || !bytes.Contains(body, []byte(`"backend":"tree"`)) {
		t.Fatalf("P4 cover: HTTP %d: %s", code, body)
	}
	if before, after := exp.Samples["pathcoverd_cache_misses_total"], scrape(t, srv.URL).Samples["pathcoverd_cache_misses_total"]; after != before {
		t.Errorf("P4 cover moved cache misses %v -> %v", before, after)
	}

	// Every instrumented request must have produced one JSON log line.
	lines := strings.Split(strings.TrimSpace(logBuf.String()), "\n")
	if len(lines) != 12 { // 11 interactive + 1 batch
		t.Fatalf("request log has %d lines, want 12:\n%s", len(lines), logBuf.String())
	}
	var p4 reqLogEntry
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &p4); err != nil || p4.Backend != "tree" || p4.Cache != "bypass" {
		t.Errorf("P4 log line %q: want backend tree, cache bypass (%v)", lines[len(lines)-1], err)
	}
	sawHit := false
	for _, ln := range lines {
		var e reqLogEntry
		if err := json.Unmarshal([]byte(ln), &e); err != nil {
			t.Fatalf("log line %q: %v", ln, err)
		}
		if e.Method == "" || e.Endpoint == "" || e.Status == 0 || e.Tier == "" {
			t.Errorf("log line missing fields: %q", ln)
		}
		if e.Cache == "hit" && e.Shard == -1 {
			sawHit = true
		}
	}
	if !sawHit {
		t.Error("no log line recorded the cache hit (cache=hit, shard=-1)")
	}

	// Concurrent load: counters must be monotone between scrapes, and
	// the exposition must stay parseable while requests are in flight.
	before := scrape(t, srv.URL)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				blob, _ := json.Marshal(cotreeSpec(uint64(w*100+i), 64+i))
				resp, err := http.Post(srv.URL+"/cover", "application/json", bytes.NewReader(blob))
				if err != nil {
					panic(err)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if i%5 == 0 {
					mresp, err := http.Get(srv.URL + "/metrics")
					if err != nil {
						panic(err)
					}
					io.Copy(io.Discard, mresp.Body)
					mresp.Body.Close()
				}
			}
		}(w)
	}
	wg.Wait()
	after := scrape(t, srv.URL)
	for key, v := range before.Samples {
		name, _, _ := strings.Cut(key, "{")
		fam := name
		if after.Types[fam] == "" {
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				if base, ok := strings.CutSuffix(name, suf); ok && after.Types[base] == "histogram" {
					fam = base
					break
				}
			}
		}
		typ := after.Types[fam]
		if typ != "counter" && typ != "histogram" {
			continue // gauges may move either way
		}
		got, ok := after.Samples[key]
		if !ok {
			t.Errorf("counter %s vanished between scrapes", key)
			continue
		}
		if got < v {
			t.Errorf("counter %s went backwards: %v -> %v", key, v, got)
		}
	}
	if d := after.Samples[`pathcoverd_requests_total{endpoint="/cover"}`] -
		before.Samples[`pathcoverd_requests_total{endpoint="/cover"}`]; d != 80 {
		t.Errorf("concurrent phase counted %v /cover requests, want 80", d)
	}
}

// TestBatchGate checks the weighted-admission cap arithmetic and the
// claim/release cycle.
func TestBatchGate(t *testing.T) {
	g := newBatchGate(0.5, 8)
	if g.cap != 4 {
		t.Fatalf("cap = %d, want 4", g.cap)
	}
	releases := make([]func(), 0, 4)
	for i := 0; i < 4; i++ {
		rel, ok := g.admit()
		if !ok {
			t.Fatalf("admit %d refused below cap", i)
		}
		releases = append(releases, rel)
	}
	if _, ok := g.admit(); ok {
		t.Fatal("admit succeeded at cap")
	}
	releases[0]()
	if _, ok := g.admit(); !ok {
		t.Fatal("admit refused after a release")
	}
	// The cap floors at 1 so batches always make progress.
	if g := newBatchGate(0.01, 8); g.cap != 1 {
		t.Errorf("tiny share cap = %d, want 1", g.cap)
	}
	// Unbounded queues and degenerate shares disable the gate.
	for _, g := range []*batchGate{
		newBatchGate(0.5, -1), newBatchGate(0.5, 0),
		newBatchGate(1.0, 8), newBatchGate(0, 8), newBatchGate(-2, 8),
	} {
		if g.cap != 0 {
			t.Errorf("gate not disabled: cap = %d", g.cap)
		}
		if _, ok := g.admit(); !ok {
			t.Error("disabled gate refused admission")
		}
	}
}

// TestShedPaths drives every shedding verdict through the HTTP surface
// with the cost estimate pinned impossibly high: explicit-edge-list
// covers degrade to the approximation backend, while cotree, pinned,
// strict, hamiltonian and batch requests are rejected 503 with a
// Retry-After header.
func TestShedPaths(t *testing.T) {
	s := New(Config{Shards: 1, Queue: -1, ShedAfter: time.Millisecond, LogOutput: io.Discard})
	defer s.Close()
	s.estimator.seed(1e9) // one second per vertex: everything projects over budget
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	pathEdges := func(n int) []map[string]any {
		edges := make([][2]int, 0, n-1)
		for v := 1; v < n; v++ {
			edges = append(edges, [2]int{v - 1, v})
		}
		return []map[string]any{{"n": n, "edges": edges}}
	}
	tree := pathEdges(6)[0] // P6 contains P4: not a cograph, explicit edges

	wantShed := func(path string, body any) {
		t.Helper()
		code, payload, hdr := postBody(t, srv.URL, path, body)
		if code != http.StatusServiceUnavailable {
			t.Fatalf("%s: HTTP %d, want 503: %s", path, code, payload)
		}
		if hdr.Get("Retry-After") == "" {
			t.Errorf("%s: shed 503 without Retry-After", path)
		}
		if !bytes.Contains(payload, []byte("shed")) {
			t.Errorf("%s: shed body does not say so: %s", path, payload)
		}
	}

	// Cotree-built graphs have no explicit edges — degrading would cost
	// an O(m) materialisation — so they reject.
	wantShed("/cover", cotreeSpec(3, 64))
	// Pinned and strict requests may not be rerouted.
	pinned := map[string]any{"n": tree["n"], "edges": tree["edges"], "backend": "tree"}
	wantShed("/cover", pinned)
	wantShed("/cover?strict=1", map[string]any{"n": 3, "edges": [][2]int{{0, 1}, {1, 2}}})
	// Hamiltonicity has no approximate tier; batches never mix tiers.
	wantShed("/hamiltonian", cotreeSpec(3, 64))
	wantShed("/batch", map[string]any{"graphs": pathEdges(6)})

	// An unpinned explicit-edge-list cover degrades instead: admitted,
	// answered approximately, marked.
	code, payload, _ := postBody(t, srv.URL, "/cover", tree)
	if code != http.StatusOK {
		t.Fatalf("degradable cover: HTTP %d: %s", code, payload)
	}
	var cov struct {
		NumPaths int    `json:"num_paths"`
		Exact    bool   `json:"exact"`
		Degraded bool   `json:"degraded"`
		Backend  string `json:"backend"`
	}
	if err := json.Unmarshal(payload, &cov); err != nil {
		t.Fatalf("degraded response: %v", err)
	}
	if !cov.Degraded || cov.Exact {
		t.Fatalf("degraded cover flags: degraded=%v exact=%v, want true/false (%s)",
			cov.Degraded, cov.Exact, payload)
	}
	if cov.Backend != pathcover.BackendApprox.String() {
		t.Errorf("degraded backend = %q, want %q", cov.Backend, pathcover.BackendApprox)
	}

	exp := scrape(t, srv.URL)
	if got, _ := exp.Value(`pathcoverd_shed_total{reason="cost"}`); got != 5 {
		t.Errorf("shed{cost} = %v, want 5", got)
	}
	if got, _ := exp.Value("pathcoverd_degraded_total"); got != 1 {
		t.Errorf("degraded_total = %v, want 1", got)
	}

	// Clearing the estimate re-admits everything: no data, no shedding.
	s.estimator.seed(0)
	code, payload, _ = postBody(t, srv.URL, "/cover", cotreeSpec(3, 64))
	if code != http.StatusOK {
		t.Fatalf("cover after reset: HTTP %d: %s", code, payload)
	}
	cov.Exact, cov.Degraded = false, false // degraded is omitempty: zero before reuse
	if err := json.Unmarshal(payload, &cov); err != nil || !cov.Exact || cov.Degraded {
		t.Fatalf("cover after reset: exact=%v degraded=%v err=%v", cov.Exact, cov.Degraded, err)
	}
}

// TestShedLearnsFromSolves runs the estimator's whole loop through the
// HTTP surface, where TestShedPaths seeds the estimate by hand: with no
// estimate the first cover is admitted and its solve is observed, and
// with a one-nanosecond budget that learned cost alone sheds the next
// cotree cover (503) and degrades the next edge-list cover.
func TestShedLearnsFromSolves(t *testing.T) {
	s := New(Config{Shards: 1, Queue: -1, ShedAfter: time.Nanosecond, LogOutput: io.Discard})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	if got := s.estimator.nsPerVertex(); got != 0 {
		t.Fatalf("fresh estimator reads %v ns/vertex, want 0", got)
	}
	if code, payload, _ := postBody(t, srv.URL, "/cover", cotreeSpec(1, 64)); code != http.StatusOK {
		t.Fatalf("first cover (no estimate yet): HTTP %d: %s", code, payload)
	}
	if got := s.estimator.nsPerVertex(); got <= 0 {
		t.Fatalf("estimate after one solve = %v ns/vertex, want > 0", got)
	}

	code, payload, hdr := postBody(t, srv.URL, "/cover", cotreeSpec(2, 64))
	if code != http.StatusServiceUnavailable {
		t.Fatalf("cotree cover over the learned budget: HTTP %d, want 503: %s", code, payload)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("shed 503 without Retry-After")
	}

	edges := make([][2]int, 0, 63)
	for v := 1; v < 64; v++ {
		edges = append(edges, [2]int{v - 1, v})
	}
	code, payload, _ = postBody(t, srv.URL, "/cover", map[string]any{"n": 64, "edges": edges})
	if code != http.StatusOK {
		t.Fatalf("edge-list cover over the learned budget: HTTP %d, want 200: %s", code, payload)
	}
	var cov struct {
		Exact    bool `json:"exact"`
		Degraded bool `json:"degraded"`
	}
	if err := json.Unmarshal(payload, &cov); err != nil {
		t.Fatalf("degraded response: %v", err)
	}
	if !cov.Degraded || cov.Exact {
		t.Fatalf("edge-list cover: degraded=%v exact=%v, want true/false (%s)", cov.Degraded, cov.Exact, payload)
	}
}

// TestBatchShareShed fills the batch tier's admission share with
// requests parked on a slow graph and asserts the next batch is shed
// with reason batch_share while interactive /cover traffic still
// serves.
func TestBatchShareShed(t *testing.T) {
	// Queue 2, share 0.5 -> the batch tier may hold exactly one request.
	s := New(Config{Shards: 1, Queue: 2, BatchShare: 0.5, LogOutput: io.Discard})
	defer s.Close()
	if s.batchGate.cap != 1 {
		t.Fatalf("gate cap = %d, want 1", s.batchGate.cap)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	release, ok := s.batchGate.admit() // park the tier's one slot
	if !ok {
		t.Fatal("could not claim the batch slot")
	}
	code, payload, hdr := postBody(t, srv.URL, "/batch", map[string]any{
		"graphs": []map[string]any{cotreeSpec(5, 32)},
	})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("batch over share: HTTP %d: %s", code, payload)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("batch-share 503 missing Retry-After")
	}
	// Interactive traffic is not gated by the batch share.
	if code, payload, _ := postBody(t, srv.URL, "/cover", cotreeSpec(6, 32)); code != http.StatusOK {
		t.Fatalf("interactive cover while batch tier full: HTTP %d: %s", code, payload)
	}
	release()
	if code, payload, _ := postBody(t, srv.URL, "/batch", map[string]any{
		"graphs": []map[string]any{cotreeSpec(5, 32)},
	}); code != http.StatusOK {
		t.Fatalf("batch after release: HTTP %d: %s", code, payload)
	}
	exp := scrape(t, srv.URL)
	if got, _ := exp.Value(`pathcoverd_shed_total{reason="batch_share"}`); got != 1 {
		t.Errorf("shed{batch_share} = %v, want 1", got)
	}
}

// TestReqLogSampling checks the deterministic head-sampling sequence
// and the nil-logger fast path.
func TestReqLogSampling(t *testing.T) {
	if l := newReqLogger(nil, 1); l != nil {
		t.Error("logger without a writer is not nil")
	}
	if l := newReqLogger(io.Discard, 0); l != nil {
		t.Error("rate 0 logger is not nil")
	}
	var nilLogger *reqLogger
	if nilLogger.sample() {
		t.Error("nil logger sampled a request")
	}
	l := newReqLogger(io.Discard, 0.25)
	hits := 0
	for i := 0; i < 100; i++ {
		if l.sample() {
			hits++
		}
	}
	if hits != 25 {
		t.Errorf("rate 0.25 sampled %d of 100, want exactly 25", hits)
	}
}

// TestOversizeRequests413 checks the size limits: a body over MaxBody
// and edge lists declaring more than MaxBody/2 vertices (summed over a
// batch) get 413 before any graph is built, and the node keeps
// serving afterwards.
func TestOversizeRequests413(t *testing.T) {
	s := New(Config{Shards: 1, MaxBody: 4096}) // vertex cap 2048
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	edgeless := func(n int) map[string]any { return map[string]any{"n": n, "edges": [][2]int{}} }
	padded := make([][2]int, 1000) // ~6 KB of edges: over the body limit
	cases := []struct {
		path string
		body any
		want string
	}{
		{"/cover", edgeless(2049), "2049 vertices exceed the supported maximum 2048"},
		{"/cover", edgeless(2_000_000_000), "2000000000 vertices exceed"},
		{"/hamiltonian", edgeless(2049), "exceed"},
		{"/graphs", edgeless(2049), "exceed"},
		{"/batch", map[string]any{"graphs": []any{edgeless(1500), cotreeSpec(1, 8), edgeless(1000)}},
			"2500 vertices exceed the supported maximum 2048"},
		{"/cover", map[string]any{"n": 3, "edges": padded}, "request body too large"},
		{"/batch", map[string]any{"graphs": []any{map[string]any{"n": 3, "edges": padded}}}, "request body too large"},
	}
	for _, tc := range cases {
		code, body, _ := postBody(t, srv.URL, tc.path, tc.body)
		if code != http.StatusRequestEntityTooLarge || !strings.Contains(string(body), tc.want) {
			t.Errorf("%s: HTTP %d %s, want 413 containing %q", tc.path, code, body, tc.want)
		}
	}
	// At the cap everything is served, and the node is still healthy.
	code, body, _ := postBody(t, srv.URL, "/cover", map[string]any{"n": 2048, "edges": [][2]int{}, "omit_paths": true})
	if code != http.StatusOK || !strings.Contains(string(body), `"num_paths":2048`) {
		t.Fatalf("/cover at the cap: HTTP %d %s", code, body)
	}
	code, body, _ = postBody(t, srv.URL, "/batch", map[string]any{"graphs": []any{edgeless(1048), edgeless(1000)}, "omit_paths": true})
	if code != http.StatusOK {
		t.Fatalf("/batch at the cap: HTTP %d %s", code, body)
	}
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after 413s: %v %v", resp, err)
	}
	resp.Body.Close()
}
