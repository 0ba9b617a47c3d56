package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pathcover"
	"pathcover/internal/canon"
	"pathcover/internal/cluster"
	"pathcover/internal/cograph"
	"pathcover/internal/core"
	"pathcover/internal/cotree"
	"pathcover/internal/daemon"
	"pathcover/internal/pram"
)

// span is one traced call into a layer. Spans of one request share Req;
// Parent is the id of the span that caused it (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the pass ends.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func (tr *tracer) newID() int64 { return tr.ids.Add(1) }

// add records a span under a pre-allocated id and returns its duration.
func (tr *tracer) add(id, parent int64, req int, name string, start, end time.Time) time.Duration {
	tr.mu.Lock()
	tr.spans = append(tr.spans, span{id, parent, req, name, start.Sub(tr.t0).Nanoseconds(), end.Sub(tr.t0).Nanoseconds()})
	tr.mu.Unlock()
	return end.Sub(start)
}

// child records a span with a fresh id.
func (tr *tracer) child(parent int64, req int, name string, start time.Time) time.Duration {
	return tr.add(tr.newID(), parent, req, name, start, time.Now())
}

// write saves the spans as JSON lines, in start order.
func (tr *tracer) write(path string) error {
	sort.Slice(tr.spans, func(a, b int) bool { return tr.spans[a].Start < tr.spans[b].Start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// replayed is what the traced pass learned about one request.
type replayed struct {
	decode, build, canon, pool, encode, handler time.Duration
	g                                           *pathcover.Graph
	spec                                        wireSpec
	edgeList                                    bool
	hit                                         bool
	reqBytes, respBytes                         int
	inproc, handled                             coverReply
}

// traceIn is the input of the traced pass.
type traceIn struct {
	w      *wl
	reqs   []request     // the replayed prefix of the measured stream
	served []*coverReply // the untraced run's answers to the same requests
	// compareStats requires the served simulated counters to equal the
	// traced core run's (every served answer was a fresh solve).
	compareStats bool
	e2eP50       float64 // latency p50 of the untraced run, ms (0: none)
	spansPath    string
}

// coverageKey is the share of daemon.handler time the layer spans
// cover; tracedPass returns it beside the metrics for the run record.
const coverageKey = "trace.handler_coverage"

// perLayerCap bounds the sequential sub-passes (alone solves, core
// steps, backends, route keys) to this many requests.
const perLayerCap = 40

// tracedPass replays the stream in process at the workload's
// concurrency, timing calls into each layer's public functions in the
// handler's order, then runs the sequential sub-passes. It returns the
// per-layer metrics it can measure by name.
func tracedPass(in traceIn) (map[string]float64, error) {
	tr := &tracer{t0: time.Now()}
	rs := make([]replayed, len(in.reqs))
	out := map[string]float64{}

	// 1. The handler's steps, one span each, on a pool built like the
	// daemon's.
	pool := pathcover.NewPool(pathcover.WithCache(64 << 20))
	err := concurrently(len(rs), in.w.clients, func(i int) error { return replayOne(tr, pool, i, in.reqs[i].body, &rs[i]) })
	pool.Close()
	if err != nil {
		return nil, err
	}

	// 2. The same bodies through the daemon's own handler. The Go
	// runtime's allocation and GC time over this sub-pass stand for the
	// serving process's.
	srv := daemon.New(daemon.Config{CacheMB: 64, RequestTimeout: 30 * time.Second, LogOutput: io.Discard})
	rt0 := readRuntime()
	err = concurrently(len(rs), in.w.clients, func(i int) error { return handleOne(tr, srv.Handler(), i, in.reqs[i].body, &rs[i]) })
	rt1 := readRuntime()
	srv.Close()
	if err != nil {
		return nil, err
	}
	out["runtime.alloc_kb_per_req"] = (rt1.allocBytes - rt0.allocBytes) / 1024 / float64(len(rs))
	out["runtime.gc_cpu_frac"] = ratio(rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU)

	// Every in-process answer must equal the served one.
	for i := range rs {
		for _, got := range []*coverReply{&rs[i].inproc, &rs[i].handled} {
			if s := in.served[i]; s != nil && (got.NumPaths != s.NumPaths || got.Exact != s.Exact || got.Backend != s.Backend) {
				return nil, fmt.Errorf("request %d: in process %d paths exact=%v %s, served %d paths exact=%v %s",
					i, got.NumPaths, got.Exact, got.Backend, s.NumPaths, s.Exact, s.Backend)
			}
		}
	}

	var decode, parse, accept, reject, canonMS, encode, handler, self, poolMiss []float64
	var cotreeBytes, edges, parseSecs, recogSecs, reqBytes, respBytes, layerSum, handlerSum float64
	for _, r := range rs {
		decode = append(decode, ms(r.decode))
		encode = append(encode, ms(r.encode))
		handler = append(handler, ms(r.handler))
		layers := r.decode + r.build + r.canon + r.pool + r.encode
		self = append(self, ms(r.handler-layers))
		layerSum += ms(layers)
		handlerSum += ms(r.handler)
		reqBytes += float64(r.reqBytes)
		respBytes += float64(r.respBytes)
		switch {
		case !r.edgeList:
			parse = append(parse, ms(r.build))
			cotreeBytes += float64(len(r.spec.Cotree))
			parseSecs += r.build.Seconds()
		case r.g.IsCograph():
			accept = append(accept, ms(r.build))
		default:
			reject = append(reject, ms(r.build))
		}
		if r.edgeList {
			edges += float64(len(r.spec.Edges))
			recogSecs += r.build.Seconds()
		}
		if r.g.IsCograph() {
			canonMS = append(canonMS, ms(r.canon))
			if !r.hit {
				poolMiss = append(poolMiss, ms(r.pool))
			}
		}
	}
	out["daemon.decode_ms"] = median(decode)
	out["daemon.encode_ms"] = median(encode)
	out["daemon.handler_ms"] = median(handler)
	out["daemon.self_ms"] = median(self)
	if in.e2eP50 > 0 {
		out["daemon.transport_ms"] = in.e2eP50 - median(handler)
	}
	out["daemon.req_kb"] = reqBytes / 1024 / float64(len(rs))
	out["daemon.resp_kb"] = respBytes / 1024 / float64(len(rs))
	out["cotree.parse_ms"] = median(parse)
	out["cotree.parse_mb_s"] = ratio(cotreeBytes/1e6, parseSecs)
	out["cograph.accept_ms"] = median(accept)
	out["cograph.reject_ms"] = median(reject)
	out["cograph.ns_per_edge"] = ratio(recogSecs*1e9, edges)
	out["canon.canonicalize_ms"] = median(canonMS)
	out[coverageKey] = ratio(layerSum, handlerSum)
	fmt.Fprintf(os.Stderr, "trace: layer spans cover %.1f%% of daemon.handler time over %d requests\n",
		100*out[coverageKey], len(rs))

	// 3. Sequential sub-passes over distinct graphs.
	cographs, raws := distinctGraphs(rs)
	if err := alonePass(cographs, poolMiss, out); err != nil {
		return nil, err
	}
	if err := corePass(rs, in, out); err != nil {
		return nil, err
	}
	if err := backendPass(raws, out); err != nil {
		return nil, err
	}
	recognitionAlloc(rs, out)
	if err := routeKeyPass(in.reqs, out); err != nil {
		return nil, err
	}
	if in.w.gateway {
		if err := hopPass(in.reqs, rs, out); err != nil {
			return nil, err
		}
	}
	return out, tr.write(in.spansPath)
}

// concurrently runs f(0..n-1) on c goroutines pulling indices in order,
// and returns the first error.
func concurrently(n, c int, f func(i int) error) error {
	var next atomic.Int64
	errs := make([]error, c)
	var wg sync.WaitGroup
	for k := 0; k < c; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || errs[k] != nil {
					return
				}
				errs[k] = f(i)
			}
		}(k)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// replayOne traces one request through decode, parse or recognize,
// canonicalize, Pool.MinimumPathCover and encode.
func replayOne(tr *tracer, pool *pathcover.Pool, i int, body []byte, r *replayed) error {
	root := tr.newID()
	start := time.Now()
	t := time.Now()
	if err := json.Unmarshal(body, &r.spec); err != nil {
		return fmt.Errorf("request %d: decode: %w", i, err)
	}
	r.decode = tr.child(root, i, "daemon.decode", t)
	r.reqBytes = len(body)
	r.edgeList = r.spec.Cotree == ""
	name := "cotree.parse"
	if r.edgeList {
		name = "cograph.recognize"
	}
	t = time.Now()
	g, err := buildGraph(&r.spec)
	if err != nil {
		return fmt.Errorf("request %d: %w", i, err)
	}
	r.build = tr.child(root, i, name, t)
	r.g = g
	if g.IsCograph() {
		t = time.Now()
		g.CanonicalHash()
		r.canon = tr.child(root, i, "canon.canonicalize", t)
	}
	t = time.Now()
	cov, err := pool.MinimumPathCover(context.Background(), g)
	if err != nil {
		return fmt.Errorf("request %d: pool: %w", i, err)
	}
	r.pool = tr.child(root, i, "pool.cover", t)
	r.hit = cov.Shard < 0
	t = time.Now()
	names := make([]string, g.N())
	for v := range names {
		names[v] = g.Name(v)
	}
	r.inproc = coverReply{N: g.N(), NumPaths: cov.NumPaths, Paths: cov.Paths, Names: names,
		Exact: cov.Exact, Backend: cov.Backend.String(), LowerBound: cov.LowerBound, Gap: cov.Gap}
	r.inproc.Stats.Time, r.inproc.Stats.Work = cov.Stats.Time, cov.Stats.Work
	if _, err := json.Marshal(&r.inproc); err != nil { // the response the daemon would write
		return fmt.Errorf("request %d: encode: %w", i, err)
	}
	r.encode = tr.child(root, i, "daemon.encode", t)
	tr.add(root, 0, i, "request", start, time.Now())
	r.inproc.Paths, r.inproc.Names = nil, nil
	return nil
}

// handleOne sends one body through the daemon's handler on an
// in-memory recorder.
func handleOne(tr *tracer, h http.Handler, i int, body []byte, r *replayed) error {
	req := httptest.NewRequest(http.MethodPost, "/cover?include_names=1", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	t := time.Now()
	h.ServeHTTP(rec, req)
	r.handler = tr.add(tr.newID(), 0, i, "daemon.handler", t, time.Now())
	if rec.Code != http.StatusOK {
		return fmt.Errorf("request %d: handler status %d: %s", i, rec.Code, rec.Body.String())
	}
	r.respBytes = rec.Body.Len()
	if err := json.Unmarshal(rec.Body.Bytes(), &r.handled); err != nil {
		return fmt.Errorf("request %d: handler reply: %w", i, err)
	}
	r.handled.Paths, r.handled.Names = nil, nil
	return nil
}

// distinctGraphs returns up to perLayerCap cographs of distinct
// canonical identity, and up to perLayerCap non-cograph graphs, in
// stream order.
func distinctGraphs(rs []replayed) (cographs, raws []*replayed) {
	seen := map[[2]uint64]bool{}
	for i := range rs {
		r := &rs[i]
		if hi, lo, ok := r.g.CanonicalHash(); ok {
			if !seen[[2]uint64{hi, lo}] && len(cographs) < perLayerCap {
				seen[[2]uint64{hi, lo}] = true
				cographs = append(cographs, r)
			}
		} else if len(raws) < perLayerCap {
			raws = append(raws, r)
		}
	}
	return cographs, raws
}

// alonePass times, one call at a time on an idle process, the solve on
// a Solver sized like one daemon shard, a cache miss and then a hit on a
// fresh cached Pool. pool.wait_ms is the concurrent replay's miss time
// minus the miss time alone.
func alonePass(graphs []*replayed, concurrentMiss []float64, out map[string]float64) error {
	if len(graphs) == 0 {
		return nil
	}
	sv := pathcover.NewSolver(pathcover.WithWorkers(pram.WorkersForShards(pram.DefaultShards())))
	defer sv.Close()
	pool := pathcover.NewPool(pathcover.WithCache(64 << 20))
	defer pool.Close()
	if _, err := sv.MinimumPathCover(graphs[0].g); err != nil { // grow the arena first
		return err
	}
	var solve, miss, hit, overhead []float64
	for _, r := range graphs {
		t := time.Now()
		if _, err := sv.MinimumPathCover(r.g); err != nil {
			return err
		}
		s := ms(time.Since(t))
		t = time.Now()
		if _, err := pool.MinimumPathCover(context.Background(), r.g); err != nil {
			return err
		}
		m := ms(time.Since(t))
		t = time.Now()
		cov, err := pool.MinimumPathCover(context.Background(), r.g)
		if err != nil {
			return err
		}
		if cov.Shard >= 0 {
			return fmt.Errorf("second call on a cached pool was not a hit")
		}
		hit = append(hit, ms(time.Since(t)))
		solve, miss, overhead = append(solve, s), append(miss, m), append(overhead, m-s)
	}
	out["pool.solve_ms"] = median(solve)
	out["pool.overhead_ms"] = median(overhead)
	out["covercache.hit_ms"] = median(hit)
	if len(concurrentMiss) > 0 {
		out["pool.wait_ms"] = median(concurrentMiss) - median(miss)
	}
	return nil
}

// stepMetric maps the leading token of a core.StepTrace step name to its
// metric.
var stepMetric = map[string]string{
	"1": "core.s1_binarize_ms", "2": "core.s2_leftist_ms",
	"3a": "core.s3a_tour_ms", "3b": "core.s3b_contract_ms", "3c": "core.s3c_reduce_ms",
	"4": "core.s4_brackets_ms", "5": "core.s5_pseudo_ms", "6": "core.s6_fix_ms",
	"7": "core.s7_bypass_ms", "8": "core.s8_extract_ms",
}

// corePass runs core.ParallelCover with its step trace on each distinct
// cograph, on one Sim configured like a daemon shard's Solver (seed 1,
// n/log n simulated processors), and checks the simulated counters
// against the served answers.
func corePass(rs []replayed, in traceIn, out map[string]float64) error {
	sim := pram.New(1, pram.WithWorkers(pram.WorkersForShards(pram.DefaultShards())))
	defer sim.Close()
	steps := map[string][]float64{}
	var simTime, simWork, verts float64
	graphs := 0
	seen := map[[2]uint64]bool{}
	for i := range rs {
		r := &rs[i]
		hi, lo, ok := r.g.CanonicalHash()
		if !ok || seen[[2]uint64{hi, lo}] || graphs == perLayerCap {
			continue
		}
		seen[[2]uint64{hi, lo}] = true
		t, err := cotreeOf(&r.spec)
		if err != nil {
			return err
		}
		sim.SetProcs(pram.ProcsFor(t.NumVertices()))
		sim.Reset()
		st := &core.StepTrace{}
		cov, err := core.ParallelCover(sim, t, core.Options{Seed: 1, Trace: st})
		if err != nil {
			return fmt.Errorf("request %d: core: %w", i, err)
		}
		cov.Release(sim)
		for k, name := range st.Names {
			tok, _, _ := strings.Cut(name, " ")
			steps[stepMetric[tok]] = append(steps[stepMetric[tok]], ms(st.Wall[k]))
		}
		if s := in.served[i]; in.compareStats && s != nil && (s.Stats.Time != sim.Time() || s.Stats.Work != sim.Work()) {
			return fmt.Errorf("request %d: served simulated time/work %d/%d, traced core run %d/%d",
				i, s.Stats.Time, s.Stats.Work, sim.Time(), sim.Work())
		}
		simTime += float64(sim.Time())
		simWork += float64(sim.Work())
		verts += float64(t.NumVertices())
		graphs++
	}
	if graphs == 0 {
		return nil
	}
	for name, walls := range steps {
		out[name] = median(walls)
	}
	out["core.simtime"] = simTime / float64(graphs)
	out["core.simwork_per_v"] = simWork / verts
	out["pram.arena_kb"] = float64(sim.Scratch().Bytes()) / 1024
	out["pram.seq_cutover"] = float64(sim.SeqCutover())
	return nil
}

// cotreeOf returns the cotree the daemon solves for a cograph spec: the
// parsed text, or the recognized edge list (FromEdgesAny's numbering).
func cotreeOf(spec *wireSpec) (*cotree.Tree, error) {
	if spec.Cotree != "" {
		return cotree.Parse(spec.Cotree)
	}
	g := cograph.NewGraph(spec.N)
	for _, e := range spec.Edges {
		g.AddEdge(e[0], e[1])
	}
	return cograph.Recognize(g, nil)
}

// backendPass times the degraded routes (tree DP; ½-approximation plus
// its lower bound) one call at a time.
func backendPass(raws []*replayed, out map[string]float64) error {
	byRoute := map[pathcover.Backend][]float64{}
	for _, r := range raws {
		t := time.Now()
		cov, err := r.g.MinimumPathCover()
		if err != nil {
			return err
		}
		byRoute[cov.Backend] = append(byRoute[cov.Backend], ms(time.Since(t)))
	}
	out["backend.tree_ms"] = median(byRoute[pathcover.BackendTree])
	out["backend.approx_ms"] = median(byRoute[pathcover.BackendApprox])
	return nil
}

// recognitionAlloc measures the bytes FromEdgesAny allocates per call,
// one call at a time over the first edge-list requests.
func recognitionAlloc(rs []replayed, out map[string]float64) {
	var total float64
	calls := 0
	var m0, m1 runtime.MemStats
	for i := range rs {
		if !rs[i].edgeList || calls == perLayerCap/2 {
			continue
		}
		runtime.ReadMemStats(&m0)
		_, _ = buildGraph(&rs[i].spec) // built without error in the replay
		runtime.ReadMemStats(&m1)
		total += float64(m1.TotalAlloc - m0.TotalAlloc)
		calls++
	}
	if calls > 0 {
		out["cograph.alloc_kb"] = total / 1024 / float64(calls)
	}
}

// routeKeyPass times what pathcover-gateway does per body to pick a
// ring node: decode, parse or recognize, and canonical key.
func routeKeyPass(reqs []request, out map[string]float64) error {
	var keys []float64
	for i := 0; i < len(reqs) && i < perLayerCap; i++ {
		t := time.Now()
		var ks wireSpec // the gateway decodes just the graph fields too
		if err := json.Unmarshal(reqs[i].body, &ks); err != nil {
			return err
		}
		if ks.Cotree != "" {
			g, err := pathcover.ParseCotree(ks.Cotree)
			if err != nil {
				return err
			}
			cluster.KeyOf(g)
		} else {
			g, err := pathcover.FromEdgesAny(ks.N, ks.Edges, nil)
			if err != nil {
				return err
			}
			if _, _, ok := g.CanonicalHash(); ok {
				cluster.KeyOf(g)
			} else {
				canon.HashEdges(ks.N, ks.Edges)
			}
		}
		keys = append(keys, ms(time.Since(t)))
	}
	out["cluster.route_key_ms"] = median(keys)
	return nil
}

// hopPass measures the gateway hop in process: two daemon nodes and a
// cluster.New gateway on loopback HTTP servers. Each cograph is sent
// once to warm its owner's cache, then timed direct to the ring owner
// and through the gateway, both cache hits.
func hopPass(reqs []request, rs []replayed, out map[string]float64) error {
	nodes := map[string]*httptest.Server{}
	var urls []string
	for k := 0; k < 2; k++ {
		srv := daemon.New(daemon.Config{CacheMB: 64, RequestTimeout: 30 * time.Second, LogOutput: io.Discard})
		defer srv.Close()
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		nodes[fmt.Sprintf("n%d", k)] = ts // cluster.New names members by index
		urls = append(urls, ts.URL)
	}
	gw := cluster.New(urls, cluster.Options{})
	defer gw.Close()
	gts := httptest.NewServer(gw.Handler())
	defer gts.Close()
	ring := cluster.NewRing(128) // the gateway's default vnodes
	for name := range nodes {
		ring.Add(name)
	}
	client := newClient(2)
	defer client.CloseIdleConnections()
	var hops []float64
	for i := range rs {
		if len(hops) == perLayerCap {
			break
		}
		if !rs[i].g.IsCograph() {
			continue
		}
		body := reqs[i].body
		owner := nodes[ring.Owner(cluster.KeyOf(rs[i].g))]
		if s := post(context.Background(), client, coverURL(owner.URL), body); s.status != 200 {
			return fmt.Errorf("hop warm-up: status %d", s.status)
		}
		direct := post(context.Background(), client, coverURL(owner.URL), body)
		via := post(context.Background(), client, coverURL(gts.URL), body)
		if direct.status != 200 || via.status != 200 {
			return fmt.Errorf("hop: status %d direct, %d via gateway", direct.status, via.status)
		}
		hops = append(hops, ms(via.lat-direct.lat))
	}
	out["cluster.hop_ms"] = median(hops)
	return nil
}

// runtimeSample is a snapshot of the Go runtime's allocation and CPU
// accounting.
type runtimeSample struct{ allocBytes, gcCPU, totalCPU float64 }

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSample{float64(s[0].Value.Uint64()), s[1].Value.Float64(), s[2].Value.Float64()}
}
