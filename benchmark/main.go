// Command benchmark is the repository's end-to-end benchmark. It runs
// one of four seeded workloads against pathcoverd and pathcover-gateway
// (built from this checkout by run.sh) or against the library in
// process, checks every answer, and prints one JSON line: the eight
// end-to-end metrics, or with -trace 1 the per-layer metrics of a
// separate traced pass. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"pathcover"
	"pathcover/internal/metrics"
	"pathcover/internal/pram"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	bin      string // directory holding pathcoverd and pathcover-gateway
	out      string // per-run directories (logs, spans, record) go here
	tiny     bool   // tiny graphs and counts, for tests
}

// setups is how many times a run sets the system up; setup_s is their
// median.
const setups = 3

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: cotree-cold, zipf-gateway, edgelist-sparse or library-64k")
	flag.Uint64Var(&o.seed, "seed", 1, "stream seed")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the measured phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 adds the traced pass and prints the per-layer metrics instead")
	flag.StringVar(&o.bin, "bin", ".bench_build/bin", "directory of the built pathcoverd and pathcover-gateway")
	flag.StringVar(&o.out, "out", ".bench_build/runs", "directory for per-run logs, spans and records")
	flag.Parse()
	o.trace = trace == 1
	if spec, ok := os.LookupEnv(setupChildEnv); ok {
		os.Exit(setupChildMain(spec))
	}
	res, err := run(context.Background(), o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// scaled returns the workload with tiny counts for smoke runs.
func (w *wl) scaled(tiny bool) *wl {
	if !tiny {
		return w
	}
	c := *w
	c.warmup = min(c.warmup, 12)
	c.minCount = 2 * c.block * 5
	c.maxCount = 2 * c.minCount
	c.tracePrefix = min(c.tracePrefix, 12)
	return &c
}

// outcome is what a measured phase produced, before it becomes metrics.
type outcome struct {
	setup      []float64
	attempted  int
	failed     int
	phase      time.Duration
	lat        []float64     // sorted latencies in ms, failures +Inf
	p50        float64       // latency_p50_ms
	replies    []*coverReply // per measured request; nil when not 200
	wrong      []error
	rssMB      float64
	layers     map[string]float64 // per-layer values the untraced run measures
	shards     int
	writeErrs  int
	traceReqs  []request
	statsMatch bool // served sim counters are fresh solves, comparable to a traced run
}

func run(ctx context.Context, o options) (*result, error) {
	base, err := workloadByName(o.workload)
	if err != nil {
		return nil, err
	}
	w := base.scaled(o.tiny)
	sz := fullSizes
	if o.tiny {
		sz = tinySizes
	}
	runDir := filepath.Join(o.out, fmt.Sprintf("%s-seed%d-trace%v", w.name, o.seed, o.trace))
	if err := os.RemoveAll(runDir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	rec := &runRecord{Workload: w.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace}
	rec.hostInfo()
	rec.HostProbeMS = hostProbe()
	rec.SeqCutover = pram.New(1).SeqCutover()
	rec.Builds, rec.Commit = buildStamps(o.bin, "pathcoverd", "pathcover-gateway")

	reqs := w.gen(o.seed, w.warmup+w.maxCount, sz)
	var oc *outcome
	if w.library {
		oc, err = runLibrary(o, w, reqs)
	} else {
		oc, err = runHTTP(ctx, o, w, reqs, runDir)
	}
	if err != nil {
		return nil, err
	}
	rec.SetupS = oc.setup
	rec.Requests = oc.attempted
	rec.PhaseS = oc.phase.Seconds()
	rec.PoolShards = oc.shards
	rec.WriteErrors = oc.writeErrs
	rec.QualityPrefix = min(w.minCount, oc.attempted)
	rec.TailPermille = tailPercentile(w.minCount)
	rec.TailBeyond = len(oc.lat) - rankOf(rec.TailPermille, len(oc.lat))

	res := &result{Correct: len(oc.wrong) == 0, Attempted: oc.attempted, Failed: oc.failed}
	for i, err := range oc.wrong {
		if i == 5 {
			fmt.Fprintf(os.Stderr, "... and %d more wrong answers\n", len(oc.wrong)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "wrong answer:", err)
	}

	values := map[string]float64{"host.probe_ms": rec.HostProbeMS}
	for k, v := range oc.layers {
		values[k] = v
	}
	if o.trace && res.Correct {
		served := oc.replies[:len(oc.traceReqs)]
		tv, err := tracedPass(traceIn{w: w, reqs: oc.traceReqs, served: served,
			compareStats: oc.statsMatch, e2eP50: oc.p50, spansPath: filepath.Join(runDir, "spans.jsonl")})
		if err != nil {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
		rec.Coverage = tv[coverageKey]
		for k, v := range tv {
			values[k] = v
		}
		res.Metrics = withUnits(perLayer, values)
	} else {
		res.Metrics = withUnits(endToEnd, e2eValues(w, oc))
	}
	rec.Metrics = res.Metrics
	fmt.Fprintf(os.Stderr, "run: %s seed %d: %d requests in %.2fs, tail p%.1f with %d samples beyond, setups %v s, probe %.2f ms, log write errors %d\n",
		w.name, o.seed, oc.attempted, rec.PhaseS, float64(rec.TailPermille)/10, rec.TailBeyond, oc.setup, rec.HostProbeMS, oc.writeErrs)
	if err := rec.write(filepath.Join(runDir, "record.json")); err != nil {
		return nil, err
	}
	return res, nil
}

// e2eValues turns a phase outcome into the end-to-end metrics. Quality
// (exact_frac, approx_ratio) is taken over the first minCount measured
// requests, which every run completes, so it repeats exactly per seed.
func e2eValues(w *wl, oc *outcome) map[string]float64 {
	ok := oc.attempted - oc.failed
	v := map[string]float64{
		"setup_s":         median(oc.setup),
		"throughput_rps":  float64(ok) / oc.phase.Seconds(),
		"latency_p50_ms":  oc.p50,
		"latency_tail_ms": percentile(oc.lat, tailPercentile(w.minCount)),
		"ok_frac":         float64(ok) / float64(oc.attempted),
		"rss_peak_mb":     oc.rssMB,
	}
	exact, answered, approx, ratioSum := 0, 0, 0, 0.0
	for _, r := range oc.replies[:min(w.minCount, len(oc.replies))] {
		if r == nil {
			continue
		}
		answered++
		if r.Exact {
			exact++
		} else {
			approx++
			ratioSum += float64(r.NumPaths) / float64(r.LowerBound)
		}
	}
	v["exact_frac"] = ratio(float64(exact), float64(answered))
	v["approx_ratio"] = 1
	if approx > 0 {
		v["approx_ratio"] = ratioSum / float64(approx)
	}
	return v
}

// runHTTP sets the servers up setups times (the last set-up serves the
// measured phase), runs the closed loop, reads counters, CPU and peak
// RSS, stops the servers and checks every answer.
func runHTTP(ctx context.Context, o options, w *wl, reqs []request, runDir string) (*outcome, error) {
	warm, meas := reqs[:w.warmup], reqs[w.warmup:]
	client := newClient(w.clients)
	defer client.CloseIdleConnections()
	oc := &outcome{statsMatch: !w.gateway}
	var sys *system
	var warmS []sample
	for k := 0; k < setups; k++ {
		t0 := time.Now()
		s, err := launch(ctx, client, w, o.bin, runDir, k)
		if err != nil {
			return nil, err
		}
		warmS = sequential(ctx, client, coverURL(s.target), warm)
		oc.setup = append(oc.setup, time.Since(t0).Seconds())
		client.CloseIdleConnections()
		sys = s
		if k < setups-1 {
			s.stop()
		}
	}
	defer sys.stop()
	for i, s := range warmS {
		if s.status != 200 {
			return nil, fmt.Errorf("warm-up request %d: status %d", i, s.status)
		}
	}

	before, err := scrapeAll(client, sys.procs)
	if err != nil {
		return nil, err
	}
	cpu0, err := cpuOf(sys.procs)
	if err != nil {
		return nil, err
	}
	// Peak RSS is read when minCount requests are done, so it covers the
	// same work on every run however fast the phase goes (the cache grows
	// with every distinct answer).
	rssErr := errors.New("peak RSS never read")
	d := &dispenser{stop: len(meas), deadline: time.Now().Add(time.Duration(o.seconds) * time.Second), minCount: w.minCount, block: w.block,
		atMin: func() { oc.rssMB, rssErr = peakRSS(sys.procs) }}
	samples, phase := closedLoop(ctx, client, coverURL(sys.target), meas, w.clients, d)
	if rssErr != nil {
		return nil, rssErr
	}
	cpu1, err := cpuOf(sys.procs)
	if err != nil {
		return nil, err
	}
	after, err := scrapeAll(client, sys.procs)
	if err != nil {
		return nil, err
	}
	nodeExp := after[:len(sys.nodes)]
	if v, ok := nodeExp[0].Value("pathcoverd_shards"); ok {
		oc.shards = int(v)
	}
	sys.stop()
	var logs []string
	for _, p := range sys.procs {
		logs = append(logs, p.logPath)
	}
	oc.writeErrs = countWriteErrors(logs)

	oc.attempted, oc.phase = len(samples), phase
	oc.lat = latencies(samples)
	oc.p50 = median(oc.lat)
	reqN := float64(len(samples))
	oc.layers = nodeLayers(before, after, cpu0, cpu1, len(sys.nodes), reqN)
	for _, c := range checkAll(warm, warmS) {
		if c.err != nil {
			oc.wrong = append(oc.wrong, fmt.Errorf("warm-up: %w", c.err))
		}
	}
	oc.replies = make([]*coverReply, len(samples))
	for i, c := range checkAll(meas[:len(samples)], samples) {
		switch {
		case samples[i].status != 200:
			oc.failed++
		case c.err != nil:
			oc.wrong = append(oc.wrong, fmt.Errorf("request %d (%s, n=%d): %w", i, meas[i].kind, meas[i].n, c.err))
		default:
			oc.replies[i] = &c.reply
		}
	}
	oc.traceReqs = meas[:min(w.tracePrefix, len(samples))]
	return oc, nil
}

// cpuOf reads the CPU seconds of every process.
func cpuOf(ps []*proc) ([]float64, error) {
	out := make([]float64, len(ps))
	for i, p := range ps {
		c, err := cpuSeconds(p.pid())
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}

// nodeLayers derives the per-layer values the untraced run measures:
// CPU per request of the nodes (and gateway), counter deltas read from
// /metrics around the measured phase.
func nodeLayers(before, after []*metrics.Exposition, cpu0, cpu1 []float64, nodes int, reqs float64) map[string]float64 {
	v := map[string]float64{}
	nodeCPU := 0.0
	for i := 0; i < nodes; i++ {
		nodeCPU += cpu1[i] - cpu0[i]
	}
	v["daemon.cpu_ms_per_req"] = 1000 * nodeCPU / reqs
	hits := fleetDelta(before[:nodes], after[:nodes], "pathcoverd_cache_hits_total")
	lookups := hits + fleetDelta(before[:nodes], after[:nodes], "pathcoverd_cache_misses_total") +
		fleetDelta(before[:nodes], after[:nodes], "pathcoverd_cache_coalesced_total")
	v["covercache.hit_frac"] = ratio(hits, lookups)
	if len(before) > nodes { // the gateway is last
		gb, ga := before[nodes], after[nodes]
		hedged := counterDelta(gb, ga, "pathcover_gateway_hedged_total")
		v["cluster.hedges_per_req"] = hedged / reqs
		v["cluster.hedge_win_frac"] = ratio(counterDelta(gb, ga, "pathcover_gateway_hedge_wins_total"), hedged)
		v["cluster.retries_per_req"] = counterDelta(gb, ga, "pathcover_gateway_retries_total") / reqs
		v["cluster.cpu_ms_per_req"] = 1000 * (cpu1[nodes] - cpu0[nodes]) / reqs
	}
	return v
}

// runLibrary times set-up (the first call plus one call per graph) in
// this process and in setups-1 fresh child processes, then calls
// Graph.MinimumPathCover in cyclic order until the seconds run out, and
// checks every call against a verified cover of its graph.
func runLibrary(o options, w *wl, reqs []request) (*outcome, error) {
	graphs, err := libraryGraphs(reqs[:6])
	if err != nil {
		return nil, err
	}
	oc := &outcome{}
	secs, err := librarySetup(graphs)
	if err != nil {
		return nil, err
	}
	oc.setup = append(oc.setup, secs)
	for k := 1; k < setups; k++ {
		secs, err := spawnLibrarySetup(o)
		if err != nil {
			return nil, err
		}
		oc.setup = append(oc.setup, secs)
	}

	rt0 := readRuntime()
	rssErr := errors.New("peak RSS never read")
	d := &dispenser{stop: w.maxCount, deadline: time.Now().Add(time.Duration(o.seconds) * time.Second), minCount: w.minCount, block: w.block,
		atMin: func() { oc.rssMB, rssErr = peakRSSMB(os.Getpid()) }}
	calls, phase := libraryLoop(graphs, d)
	rt1 := readRuntime()
	if rssErr != nil {
		return nil, rssErr
	}
	oc.attempted, oc.phase = len(calls), phase
	oc.layers = map[string]float64{
		"runtime.alloc_kb_per_req": (rt1.allocBytes - rt0.allocBytes) / 1024 / float64(len(calls)),
		"runtime.gc_cpu_frac":      ratio(rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU),
	}

	// One verified cover per graph; every call must match its fingerprint.
	verified := make([]*coverReply, len(graphs))
	prints := make([]uint64, len(graphs))
	for j, g := range graphs {
		cov, err := g.MinimumPathCover()
		if err != nil {
			return nil, err
		}
		r := &coverReply{N: g.N(), NumPaths: cov.NumPaths, Paths: cov.Paths, Exact: cov.Exact,
			Backend: cov.Backend.String(), LowerBound: cov.LowerBound, Gap: cov.Gap}
		r.Names = make([]string, g.N())
		for v := range r.Names {
			r.Names[v] = g.Name(v)
		}
		if err := checkReply(g, kindLibrary, r); err != nil {
			oc.wrong = append(oc.wrong, fmt.Errorf("graph %d: %w", j, err))
		}
		r.Stats.Time, r.Stats.Work = cov.Stats.Time, cov.Stats.Work
		prints[j] = fingerprint(cov.Paths)
		r.Paths, r.Names = nil, nil
		verified[j] = r
	}
	lat := make([]float64, len(calls))
	perGraph := make([][]float64, len(graphs))
	oc.replies = make([]*coverReply, len(calls))
	for i, c := range calls {
		j := i % len(graphs)
		switch {
		case c.err != nil:
			oc.failed++
			lat[i] = math.Inf(1)
		case c.print != prints[j] || c.paths != verified[j].NumPaths:
			oc.wrong = append(oc.wrong, fmt.Errorf("call %d on graph %d: cover differs from the verified one", i, j))
		default:
			lat[i] = ms(c.lat)
			oc.replies[i] = verified[j]
		}
		perGraph[j] = append(perGraph[j], lat[i])
	}
	sort.Float64s(lat)
	oc.lat = lat
	// Calls come in six tight clusters of equal size, so the median call
	// falls between the third and fourth graph and would read one
	// cluster's extreme. The median of the graphs' medians does not.
	medians := make([]float64, len(graphs))
	for j, ls := range perGraph {
		medians[j] = median(ls)
	}
	oc.p50 = median(medians)
	oc.statsMatch = true
	oc.traceReqs = reqs[:6]
	return oc, nil
}

// libraryGraphs parses the six library bodies.
func libraryGraphs(reqs []request) ([]*pathcover.Graph, error) {
	graphs := make([]*pathcover.Graph, len(reqs))
	for i, r := range reqs {
		g, err := graphOf(r.body)
		if err != nil {
			return nil, err
		}
		graphs[i] = g
	}
	return graphs, nil
}

// librarySetup times the process's first cover call through the end of
// the warm-up pass (one call per graph).
func librarySetup(graphs []*pathcover.Graph) (float64, error) {
	t0 := time.Now()
	for _, g := range graphs {
		if _, err := g.MinimumPathCover(); err != nil {
			return 0, err
		}
	}
	return time.Since(t0).Seconds(), nil
}

// setupChildEnv, when set in the environment, turns the process into a
// library set-up child: "<workload> <seed> <tiny>" says what to set up.
// An environment variable rather than a flag, so a test binary can be
// the child too.
const setupChildEnv = "PATHCOVER_BENCH_SETUP_CHILD"

// spawnLibrarySetup runs one library set-up in a fresh process, so
// every set-up pays the first call's one-time costs.
func spawnLibrarySetup(o options) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%s %d %v", setupChildEnv, o.workload, o.seed, o.tiny))
	cmd.Stderr = os.Stderr
	outb, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("library set-up child: %w", err)
	}
	return strconv.ParseFloat(strings.TrimSpace(string(outb)), 64)
}

// setupChildMain is the child side of spawnLibrarySetup: it prints the
// set-up seconds and returns the exit code.
func setupChildMain(spec string) int {
	secs, err := librarySetupChild(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: set-up child:", err)
		return 1
	}
	fmt.Println(secs)
	return 0
}

func librarySetupChild(spec string) (float64, error) {
	var name string
	var seed uint64
	var tiny bool
	if _, err := fmt.Sscanf(spec, "%s %d %t", &name, &seed, &tiny); err != nil {
		return 0, fmt.Errorf("bad %s=%q: %w", setupChildEnv, spec, err)
	}
	w, err := workloadByName(name)
	if err != nil {
		return 0, err
	}
	if !w.library {
		return 0, errors.New("set-up child needs a library workload")
	}
	sz := fullSizes
	if tiny {
		sz = tinySizes
	}
	graphs, err := libraryGraphs(w.gen(seed, 6, sz))
	if err != nil {
		return 0, err
	}
	return librarySetup(graphs)
}
