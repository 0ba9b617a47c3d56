package cluster_test

// Cluster fault handling, tested against real in-process nodes: each
// "node" is an internal/daemon server on its own TCP listener (exactly
// what pathcoverd and the gateway's spawn mode run), killed by closing
// the listener and its connections abruptly — the in-process stand-in
// for CI's SIGKILL, which cluster-smoke covers on real processes. The
// suite asserts the gateway's resilience contract: a mid-stream node
// death is absorbed by retries and rerouting with zero client-visible
// errors, hedged requests cancel the losing attempt, ejected nodes
// readmit through probation, and /batch reassembles in input order
// through a mid-batch death.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pathcover"
	"pathcover/internal/cluster"
	"pathcover/internal/daemon"
)

// testNode is one in-process daemon on a real listener, killable and
// restartable on the same address.
type testNode struct {
	addr string
	wrap func(http.Handler) http.Handler

	mu sync.Mutex
	ds *daemon.Server
	hs *http.Server
}

func nodeConfig() daemon.Config {
	return daemon.Config{Shards: 1, CacheMB: 8, RequestTimeout: 30 * time.Second}
}

func startTestNode(t *testing.T, wrap func(http.Handler) http.Handler) *testNode {
	t.Helper()
	n := &testNode{wrap: wrap}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n.addr = ln.Addr().String()
	n.serve(ln)
	t.Cleanup(n.kill)
	return n
}

func (n *testNode) serve(ln net.Listener) {
	ds := daemon.New(nodeConfig())
	h := http.Handler(ds.Handler())
	if n.wrap != nil {
		h = n.wrap(h)
	}
	hs := &http.Server{Handler: h}
	n.mu.Lock()
	n.ds, n.hs = ds, hs
	n.mu.Unlock()
	go hs.Serve(ln)
}

// kill drops the node abruptly: listener and all live connections
// close at once, the pool dies. In-flight requests see a reset — the
// closest in-process analogue of SIGKILL.
func (n *testNode) kill() {
	n.mu.Lock()
	ds, hs := n.ds, n.hs
	n.ds, n.hs = nil, nil
	n.mu.Unlock()
	if hs != nil {
		hs.Close()
	}
	if ds != nil {
		ds.Close()
	}
}

// restart brings the node back on its original address.
func (n *testNode) restart(t *testing.T) {
	t.Helper()
	var ln net.Listener
	var err error
	for i := 0; i < 50; i++ {
		ln, err = net.Listen("tcp", n.addr)
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("restart %s: %v", n.addr, err)
	}
	n.serve(ln)
}

// testCluster boots n nodes and a gateway over them, served over HTTP.
func testCluster(t *testing.T, n int, opts cluster.Options, wrap func(i int) func(http.Handler) http.Handler) (*cluster.Gateway, []*testNode, string) {
	t.Helper()
	nodes := make([]*testNode, n)
	urls := make([]string, n)
	for i := range nodes {
		var w func(http.Handler) http.Handler
		if wrap != nil {
			w = wrap(i)
		}
		nodes[i] = startTestNode(t, w)
		urls[i] = "http://" + nodes[i].addr
	}
	gw := cluster.New(urls, opts)
	t.Cleanup(gw.Close)
	srv := httptest.NewServer(gw.Handler())
	t.Cleanup(srv.Close)
	return gw, nodes, srv.URL
}

// fastOpts are gateway options tuned for test time: snappy probes and
// backoff, small thresholds.
func fastOpts() cluster.Options {
	return cluster.Options{
		BaseBackoff:   5 * time.Millisecond,
		MaxBackoff:    50 * time.Millisecond,
		FailThreshold: 2,
		ProbationOKs:  2,
		HealthyOKs:    2,
		ProbeInterval: 20 * time.Millisecond,
		ProbeTimeout:  500 * time.Millisecond,
	}
}

// testGraph is one request the client can verify end to end: the
// cotree text it sends, the same-numbered local graph (the server
// parses the identical text, so path indices line up), and the known
// minimum.
type testGraph struct {
	text string
	g    *pathcover.Graph
	want int
}

func makeGraphs(t *testing.T, count int) []testGraph {
	t.Helper()
	out := make([]testGraph, count)
	for i := range out {
		n := 16 + 7*(i%12)
		g0 := pathcover.Random(uint64(100+i), n, pathcover.Mixed)
		text := g0.String()
		g, err := pathcover.ParseCotree(text)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = testGraph{text: text, g: g, want: g.MinPathCoverSize()}
	}
	return out
}

type coverResp struct {
	N        int     `json:"n"`
	NumPaths int     `json:"num_paths"`
	Paths    [][]int `json:"paths"`
	Exact    bool    `json:"exact"`
}

// postCover sends one /cover and fully checks the answer against tg.
func postCover(base string, tg testGraph) error {
	body, _ := json.Marshal(map[string]any{"cotree": tg.text})
	resp, err := http.Post(base+"/cover", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var cr coverResp
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		return fmt.Errorf("status %d: %v", resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	if cr.NumPaths != tg.want {
		return fmt.Errorf("num_paths = %d, want %d", cr.NumPaths, tg.want)
	}
	if err := tg.g.Verify(cr.Paths); err != nil {
		return fmt.Errorf("cover failed verification: %v", err)
	}
	return nil
}

// TestClusterKillMidStreamZeroErrors is the tentpole's core promise: 3
// nodes, one killed mid-stream, and every request still comes back a
// verified cover — retries and rerouting absorb the death; the dead
// node ejects within the probe window and readmits after restart.
func TestClusterKillMidStreamZeroErrors(t *testing.T) {
	gw, nodes, base := testCluster(t, 3, fastOpts(), nil)
	gw.Start()
	graphs := makeGraphs(t, 24)

	const (
		clients = 4
		perCli  = 30
		killAt  = 8 // per-client request index at which client 0 kills a node
	)
	var wg sync.WaitGroup
	errs := make([]error, clients)
	killed := make(chan struct{})
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perCli; i++ {
				if c == 0 && i == killAt {
					nodes[1].kill()
					close(killed)
				}
				if err := postCover(base, graphs[(c*perCli+i)%len(graphs)]); err != nil {
					errs[c] = fmt.Errorf("request %d: %w", i, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("client %d saw an error despite retries: %v", c, err)
		}
	}
	<-killed

	// The dead node must eject within the probe window.
	waitFor(t, 5*time.Second, "ejection", func() bool { return gw.Stats().Ejections >= 1 })

	// Restart it; probation must readmit it.
	nodes[1].restart(t)
	waitFor(t, 5*time.Second, "readmission", func() bool { return gw.Stats().Readmissions >= 1 })

	// And it must graduate back to healthy and serve again.
	waitFor(t, 5*time.Second, "healthy", func() bool {
		for _, ns := range gw.Stats().Nodes {
			if ns.Name == "n1" && ns.State == "healthy" {
				return true
			}
		}
		return false
	})
	for i := 0; i < 12; i++ {
		if err := postCover(base, graphs[i]); err != nil {
			t.Fatalf("post-readmission request %d: %v", i, err)
		}
	}

	st := gw.Stats()
	if st.Retries == 0 {
		t.Error("Retries = 0; the kill must have forced retries")
	}
	if st.Ejections == 0 || st.Readmissions == 0 {
		t.Errorf("Ejections = %d, Readmissions = %d; want both nonzero", st.Ejections, st.Readmissions)
	}
	if st.Routed == 0 {
		t.Error("Routed = 0")
	}
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestClusterHedgeCancelsLoser: a request whose ring owner is slow
// gets hedged to the next replica after the fixed threshold, the fast
// replica's answer wins, and the slow attempt is cancelled rather than
// left running.
func TestClusterHedgeCancelsLoser(t *testing.T) {
	var slowCancelled atomic.Int64
	const stall = 2 * time.Second
	opts := fastOpts()
	opts.HedgeAfter = 30 * time.Millisecond
	opts.ProbeInterval = time.Hour // passive only: probes must not trip the stalling node
	gw, _, base := testCluster(t, 2, opts, func(i int) func(http.Handler) http.Handler {
		if i != 0 {
			return nil
		}
		return func(h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/cover" {
					// Consume the body before stalling: the HTTP/1 server
					// re-arms connection monitoring at body EOF, and only
					// then does a client abort surface on r.Context().
					b, _ := io.ReadAll(r.Body)
					r.Body = io.NopCloser(bytes.NewReader(b))
					select {
					case <-r.Context().Done():
						slowCancelled.Add(1)
						return
					case <-time.After(stall):
					}
				}
				h.ServeHTTP(w, r)
			})
		}
	})

	// Find a graph whose ring owner is the slow node n0. The gateway
	// names nodes by input index, and its ring is reproducible from the
	// exported pieces.
	ring := cluster.NewRing(0)
	ring.Add("n0")
	ring.Add("n1")
	graphs := makeGraphs(t, 40)
	var tg testGraph
	found := false
	for _, cand := range graphs {
		if ring.Owner(cluster.KeyOf(cand.g)) == "n0" {
			tg, found = cand, true
			break
		}
	}
	if !found {
		t.Fatal("no test graph routed to n0; ring placement broken")
	}

	start := time.Now()
	if err := postCover(base, tg); err != nil {
		t.Fatalf("hedged request failed: %v", err)
	}
	if elapsed := time.Since(start); elapsed >= stall {
		t.Fatalf("request took %v: the hedge did not beat the stalled primary", elapsed)
	}
	st := gw.Stats()
	if st.Hedged == 0 || st.HedgeWins == 0 {
		t.Fatalf("Hedged = %d, HedgeWins = %d; want both nonzero", st.Hedged, st.HedgeWins)
	}
	// The losing attempt must be cancelled promptly, not after its stall.
	waitFor(t, time.Second, "loser cancellation", func() bool { return slowCancelled.Load() >= 1 })
}

// TestClusterBatchOrderUnderNodeDeath: a /batch whose items spread
// over 3 nodes keeps input order in the reassembled response even when
// one node is dead at dispatch time (its items reroute to the next
// replica) — and the reroute is visible in the stats.
func TestClusterBatchOrderUnderNodeDeath(t *testing.T) {
	opts := fastOpts()
	opts.ProbeInterval = time.Hour // keep the dead node on the ring: passive reroute only
	gw, nodes, base := testCluster(t, 3, opts, nil)
	graphs := makeGraphs(t, 18)

	nodes[2].kill()

	specs := make([]map[string]any, len(graphs))
	for i, tg := range graphs {
		specs[i] = map[string]any{"cotree": tg.text}
	}
	body, _ := json.Marshal(map[string]any{"graphs": specs})
	resp, err := http.Post(base+"/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var br struct {
		Covers []coverResp `json:"covers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatalf("status %d: %v", resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	if len(br.Covers) != len(graphs) {
		t.Fatalf("batch returned %d covers, want %d", len(br.Covers), len(graphs))
	}
	for i, cov := range br.Covers {
		// Input order: cover i must answer graph i — right vertex count,
		// right minimum, verifying against exactly that graph.
		if cov.N != graphs[i].g.N() {
			t.Fatalf("cover %d has n = %d, want %d: batch order lost", i, cov.N, graphs[i].g.N())
		}
		if cov.NumPaths != graphs[i].want {
			t.Fatalf("cover %d: num_paths = %d, want %d", i, cov.NumPaths, graphs[i].want)
		}
		if err := graphs[i].g.Verify(cov.Paths); err != nil {
			t.Fatalf("cover %d failed verification: %v", i, err)
		}
	}
	st := gw.Stats()
	if st.Rerouted == 0 {
		t.Error("Rerouted = 0: the dead node's items must have been rerouted")
	}
	if st.BatchItems != int64(len(graphs)) {
		t.Errorf("BatchItems = %d, want %d", st.BatchItems, len(graphs))
	}
}

// TestClusterRegisteredSession: registration through the gateway
// yields a node-prefixed id that pins later by-id requests to the
// owning node, covers by id verify, and DELETE cleans up.
func TestClusterRegisteredSession(t *testing.T) {
	_, _, base := testCluster(t, 3, fastOpts(), nil)
	tg := makeGraphs(t, 1)[0]

	body, _ := json.Marshal(map[string]any{"cotree": tg.text})
	resp, err := http.Post(base+"/graphs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var info struct {
		ID   string `json:"id"`
		Node string `json:"node"`
		N    int    `json:"n"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register status %d", resp.StatusCode)
	}
	if info.Node == "" || len(info.ID) < len(info.Node)+2 || info.ID[:len(info.Node)+1] != info.Node+"." {
		t.Fatalf("registered id %q not prefixed with its node %q", info.ID, info.Node)
	}

	cresp, err := http.Get(base + "/cover?id=" + info.ID)
	if err != nil {
		t.Fatal(err)
	}
	var cr coverResp
	if err := json.NewDecoder(cresp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("cover-by-id status %d", cresp.StatusCode)
	}
	if cr.NumPaths != tg.want {
		t.Fatalf("cover-by-id num_paths = %d, want %d", cr.NumPaths, tg.want)
	}
	if err := tg.g.Verify(cr.Paths); err != nil {
		t.Fatal(err)
	}

	req, _ := http.NewRequest(http.MethodDelete, base+"/graphs/"+info.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("delete status %d", dresp.StatusCode)
	}
	gone, err := http.Get(base + "/cover?id=" + info.ID)
	if err != nil {
		t.Fatal(err)
	}
	gone.Body.Close()
	if gone.StatusCode != http.StatusNotFound {
		t.Fatalf("deleted id served status %d, want 404", gone.StatusCode)
	}
}

// TestClusterNoRetryOnClientError: a 400-class answer is definitive —
// the gateway forwards it without retrying or walking replicas.
func TestClusterNoRetryOnClientError(t *testing.T) {
	var hits atomic.Int64
	opts := fastOpts()
	opts.ProbeInterval = time.Hour
	gw, _, base := testCluster(t, 3, opts, func(i int) func(http.Handler) http.Handler {
		return func(h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/cover" {
					hits.Add(1)
				}
				h.ServeHTTP(w, r)
			})
		}
	})
	resp, err := http.Post(base+"/cover", "application/json",
		bytes.NewReader([]byte(`{"cotree":"((("}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("nodes saw %d /cover attempts for a 400, want exactly 1", got)
	}
	if r := gw.Stats().Retries; r != 0 {
		t.Fatalf("Retries = %d on a client error, want 0", r)
	}
}

// TestClusterOversize413 checks the gateway's size limits: a body over
// its MaxBody gets 413 from the gateway itself, a batch whose edge
// lists sum past MaxBody/2 vertices gets 413 before it is split across
// nodes, and a spec over every cap is routed by its bytes (never
// built) and answered 413 by its node. The gateway keeps serving.
func TestClusterOversize413(t *testing.T) {
	opts := fastOpts()
	opts.MaxBody = 4096 // gateway vertex cap 2048
	_, _, base := testCluster(t, 2, opts, nil)
	post := func(path, body string) (int, string) {
		resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		payload, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(payload)
	}
	huge := `{"n":2000000000,"edges":[]}`
	cases := []struct{ path, body, want string }{
		{"/cover", huge, "2000000000 vertices exceed"},
		{"/hamiltonian", huge, "2000000000 vertices exceed"},
		{"/graphs", huge, "2000000000 vertices exceed"},
		{"/batch", `{"graphs":[{"n":1500,"edges":[]},{"cotree":"(0 a b)"},{"n":1000,"edges":[]}]}`,
			"2500 vertices exceed the supported maximum 2048"},
		{"/cover", `{"n":3,"edges":[` + strings.Repeat("[0,1],", 1000) + `[0,1]]}`, "request body too large"},
		{"/batch", `{"graphs":[{"n":3,"edges":[` + strings.Repeat("[0,1],", 1000) + `[0,1]]}]}`, "request body too large"},
	}
	for _, tc := range cases {
		if code, body := post(tc.path, tc.body); code != http.StatusRequestEntityTooLarge || !strings.Contains(body, tc.want) {
			t.Errorf("%s: HTTP %d %s, want 413 containing %q", tc.path, code, body, tc.want)
		}
	}
	if code, body := post("/cover", `{"n":4,"edges":[[0,1],[1,2],[2,3],[3,0]]}`); code != http.StatusOK || !strings.Contains(body, `"num_paths":1`) {
		t.Fatalf("/cover after 413s: HTTP %d %s", code, body)
	}
	resp, err := http.Get(base + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after 413s: %v %v", resp, err)
	}
	resp.Body.Close()
}
