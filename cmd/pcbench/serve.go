package main

// The serving-layer load generator. Two modes, both emitting rows
// through the same header/row plumbing as the e-experiments (so -json
// reports them and -compare diffs them):
//
//	pcbench -serve               in-process: pathcover.Pool vs a single
//	                             shared Solver on a mixed-size stream
//	pcbench -attack URL          HTTP: drive a running pathcoverd
//
// Latency columns are wall clock (p50/p99 over per-request samples);
// throughput is requests per second over the whole run. Every returned
// cover is verified (Graph.Verify client-side) — verification runs
// outside the latency window.

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pathcover"
	"pathcover/internal/cluster"
	"pathcover/internal/daemon"
	"pathcover/internal/workload"
)

var (
	serveMode = flag.Bool("serve", false, "bench the serving layer in-process (Pool vs shared Solver) instead of the e-experiments")
	attackURL = flag.String("attack", "", "comma-separated base URL(s) to load-test: one pathcoverd or pathcover-gateway, or several nodes fronted by an in-process gateway (e.g. http://127.0.0.1:8080,http://127.0.0.1:8081)")
	clients   = flag.Int("clients", 4*runtime.GOMAXPROCS(0), "concurrent clients of the serving benchmark")
	reqCount  = flag.Int("requests", 256, "requests per serving configuration")
	serveMin  = flag.Int("servemin", 10, "smallest serving-graph bucket as a power of two (sizes are log-uniform in [2^servemin, 2^(max+1)))")
	distinct  = flag.Int("distinct", 24, "distinct graphs in the serving catalog")
	batchSize = flag.Int("batch", 32, "requests per batch in the batch-serving rows")
	mixedCat  = flag.Bool("noncograph", true, "include non-cograph catalog entries (trees, sparse graphs, near-cographs) so the serving rows exercise the degraded backends")
	sizeClass = flag.String("sizeclass", "serving", "size distribution of the serving catalog: serving (small-skewed, production-shaped) | loguniform (the historical flat sweep)")
)

// classOrDie parses -sizeclass once per stream build.
func classOrDie() workload.SizeClass {
	c, err := workload.ParseSizeClass(*sizeClass)
	if err != nil {
		panic(fmt.Sprintf("pcbench: %v", err))
	}
	return c
}

// svReq is one materialised request: the graph, its precomputed
// optimum (-1 when the entry routes to the approximation backend and
// has no known optimum), and whether the route is exact. Covers are
// always verified against g itself — attack mode remaps responses onto
// g's numbering by vertex name before verification (the server's
// "names" array), so no shadow re-parsed graph is needed.
type svReq struct {
	g     *pathcover.Graph
	want  int
	exact bool
}

// buildStream materialises the request stream: one *Graph per distinct
// catalog entry (shared across its repetitions, as a serving layer's
// graph registry would), optimum precomputed where the route is exact.
// The edge lists of non-cograph entries are returned alongside for the
// HTTP wire format.
func buildStream(maxLg int) ([]svReq, map[*pathcover.Graph][][2]int) {
	class := classOrDie()
	var reqs []workload.Request
	if *mixedCat {
		reqs = workload.MixedRequestsClass(*seed, *reqCount, *serveMin, maxLg, *distinct, class)
	} else {
		reqs = workload.RequestsClass(*seed, *reqCount, *serveMin, maxLg, *distinct, class)
	}
	cat := workload.Catalog(reqs)
	built := make(map[workload.Request]svReq, len(cat))
	edgeSpecs := make(map[*pathcover.Graph][][2]int)
	for _, r := range cat {
		if r.Kind == workload.KindCograph {
			g := pathcover.Random(r.Seed, r.N, r.Shape)
			if r.Relabel != 0 {
				g = pathcover.Relabelled(g, r.Relabel)
			}
			built[r] = svReq{g: g, want: g.MinPathCoverSize(), exact: true}
			continue
		}
		edges := r.Edges()
		g, err := pathcover.FromEdgesAny(r.N, edges, nil)
		if err != nil {
			panic(fmt.Sprintf("catalog %v: %v", r, err))
		}
		// Exact routes (cograph if recognition surprises us, tree for
		// forests) have a computable optimum; the approximation route
		// does not, so only validity is asserted for those covers.
		sr := svReq{g: g, want: -1}
		if g.IsCograph() || g.IsForest() {
			sr.exact = true
			sr.want = g.MinPathCoverSize()
		}
		built[r] = sr
		edgeSpecs[g] = edges
	}
	out := make([]svReq, len(reqs))
	for i, r := range reqs {
		out[i] = built[r]
	}
	return out, edgeSpecs
}

// streamMix counts the exact- and approx-routed requests of a stream
// for the table headers ("report exact vs approx per run").
func streamMix(stream []svReq) (exact, approx int) {
	for _, r := range stream {
		if r.exact {
			exact++
		} else {
			approx++
		}
	}
	return
}

// widthMix renders the per-index-width routing counts of a stream —
// how many requests the auto dispatch sends to each kernel tier — for
// the table headers, e.g. "201 int16 / 55 int32 / 0 int".
func widthMix(stream []svReq) string {
	counts := map[string]int{}
	for _, r := range stream {
		counts[pathcover.RouteWidth(r.g.N())]++
	}
	return fmt.Sprintf("%d int16 / %d int32 / %d int",
		counts["int16"], counts["int32"], counts["int"])
}

// drive runs the stream through call from C concurrent clients
// (identified by cli, for per-client state) and returns the per-request
// latencies plus the total wall time. The cover returned by call is
// verified outside the latency window.
func drive(stream []svReq, c int, call func(cli int, r svReq) (*pathcover.Cover, error)) ([]time.Duration, time.Duration) {
	lat := make([]time.Duration, len(stream))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < c; w++ {
		wg.Add(1)
		go func(cli int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(stream) {
					return
				}
				r := stream[i]
				t0 := time.Now()
				cov, err := call(cli, r)
				lat[i] = time.Since(t0)
				if err != nil {
					panic(fmt.Sprintf("serving request %d: %v", i, err))
				}
				if cov.Exact != r.exact {
					panic(fmt.Sprintf("serving request %d: exact=%v, expected %v", i, cov.Exact, r.exact))
				}
				if r.want >= 0 && cov.NumPaths != r.want {
					panic(fmt.Sprintf("serving request %d: %d paths, want %d", i, cov.NumPaths, r.want))
				}
				if err := r.g.Verify(cov.Paths); err != nil {
					panic(fmt.Sprintf("serving request %d: invalid cover: %v", i, err))
				}
			}
		}(w)
	}
	wg.Wait()
	return lat, time.Since(start)
}

func pctl(lat []time.Duration, p float64) time.Duration {
	if len(lat) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	i := int(p * float64(len(s)-1))
	return s[i]
}

func ms(d time.Duration) string { return fmt.Sprintf("%.2f", float64(d.Nanoseconds())/1e6) }

func serveRow(name string, count int, lat []time.Duration, wall time.Duration) {
	row(name,
		fmt.Sprint(*clients),
		fmt.Sprint(count),
		fmt.Sprintf("%.2f", wall.Seconds()),
		fmt.Sprintf("%.1f", float64(count)/wall.Seconds()),
		ms(pctl(lat, 0.50)),
		ms(pctl(lat, 0.99)))
}

// runServe is the in-process serving benchmark: the same mixed-size
// stream served by (a) one Solver per client — the pre-Pool idiom that
// oversubscribes the host, (b) a single mutex-shared Solver — the
// minimal-footprint baseline the acceptance criterion names, and (c)
// Pools of 1/2/4/default shards; then the batch API against the
// arrival-order single-Solver equivalent.
func runServe() {
	maxLg := min(*maxLog, 16)
	stream, _ := buildStream(maxLg)
	exactN, approxN := streamMix(stream)
	header(fmt.Sprintf("S1 — serving throughput, %s n in [2^%d, 2^%d), %d requests over %d graphs (%d exact-routed, %d approx-routed; widths %s)",
		classOrDie(), *serveMin, maxLg+1, len(stream), *distinct, exactN, approxN, widthMix(stream)),
		"configuration", "clients", "requests", "wall s", "req/s", "p50 ms", "p99 ms")

	// (a) Solver per client: every client owns a full-width Solver, so C
	// clients claim C*GOMAXPROCS workers between them — the pre-Pool
	// idiom whose oversubscription motivates the sharded fleet.
	func() {
		solvers := make([]*pathcover.Solver, *clients)
		for i := range solvers {
			solvers[i] = pathcover.NewSolver(pathcover.WithSeed(*seed))
			defer solvers[i].Close()
		}
		lat, wall := drive(stream, *clients, func(cli int, r svReq) (*pathcover.Cover, error) {
			cov, err := solvers[cli].MinimumPathCover(r.g)
			if err != nil {
				return nil, err
			}
			return clonedCover(cov), nil
		})
		serveRow("solver per client (oversubscribed)", len(stream), lat, wall)
	}()

	// (b) Single shared Solver behind a mutex: the serialized baseline.
	func() {
		sv := pathcover.NewSolver(pathcover.WithSeed(*seed))
		defer sv.Close()
		var mu sync.Mutex
		lat, wall := drive(stream, *clients, func(_ int, r svReq) (*pathcover.Cover, error) {
			mu.Lock()
			cov, err := sv.MinimumPathCover(r.g)
			if err != nil {
				mu.Unlock()
				return nil, err
			}
			out := clonedCover(cov)
			mu.Unlock()
			return out, nil
		})
		serveRow("single shared Solver (mutex)", len(stream), lat, wall)
	}()

	// (c) Pools.
	shardCounts := []int{1, 2, 4}
	if d := pathcover.NewPool(); true {
		if n := d.NumShards(); n != 1 && n != 2 && n != 4 {
			shardCounts = append(shardCounts, n)
		}
		d.Close()
	}
	for _, k := range shardCounts {
		p := pathcover.NewPool(pathcover.WithShards(k), pathcover.WithQueueDepth(-1),
			pathcover.WithShardOptions(pathcover.WithSeed(*seed)))
		lat, wall := drive(stream, *clients, func(_ int, r svReq) (*pathcover.Cover, error) {
			return p.MinimumPathCover(context.Background(), r.g)
		})
		serveRow(fmt.Sprintf("pool, %d shards", k), len(stream), lat, wall)
		p.Close()
	}

	runServeBatch(stream, maxLg)
	runServeZipf(maxLg)
	runServeWidths()
	runServeCluster(min(maxLg, 14))
}

// runServeCluster is the cache-affinity A/B the cluster routing is
// for: the same Zipf repeat-heavy stream served by three in-process
// daemon nodes (each with its own canonical result cache) behind (a)
// the consistent-hash gateway — every presentation of a base graph
// hashes to one owner, so each distinct canonical identity is solved
// once cluster-wide — and (b) uniform-random node choice, where each
// node must warm its own copy of the popular graphs. The hit %% column
// is the aggregate across the three node caches; affine routing's must
// come out higher on the same stream.
func runServeCluster(maxLg int) {
	const nNodes = 3
	const zipfS = 1.1
	stream := buildZipfStream(maxLg, zipfS)
	specs := make(map[*pathcover.Graph][]byte, *distinct)
	remaps := make(map[*pathcover.Graph]map[string]int, *distinct)
	for _, r := range stream {
		if _, ok := specs[r.g]; !ok {
			blob, err := json.Marshal(map[string]any{"cotree": r.g.String()})
			if err != nil {
				panic(err)
			}
			specs[r.g] = blob
			remaps[r.g] = nameIndex(r.g)
		}
	}
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: *clients}}

	header(fmt.Sprintf("S5 — cluster cache affinity, %d nodes × 32 MiB canonical caches, Zipf(%.1f) stream of %d requests over %d base graphs ×3 presentations, n in [2^%d, 2^%d)",
		nNodes, zipfS, len(stream), *distinct, *serveMin, maxLg+1),
		"routing", "clients", "requests", "hit %", "wall s", "req/s", "p50 ms", "p99 ms")

	type coverResp struct {
		NumPaths int      `json:"num_paths"`
		Paths    [][]int  `json:"paths"`
		Names    []string `json:"names"`
		Exact    bool     `json:"exact"`
	}
	do := func(url string, r svReq) (*pathcover.Cover, error) {
		resp, err := client.Post(url+"/cover?include_names=1", "application/json", bytes.NewReader(specs[r.g]))
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		payload, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("/cover: HTTP %d: %s", resp.StatusCode, payload)
		}
		var out coverResp
		if err := json.Unmarshal(payload, &out); err != nil {
			return nil, err
		}
		return &pathcover.Cover{Paths: remapPaths(remaps[r.g], out.Paths, out.Names), NumPaths: out.NumPaths, Exact: out.Exact}, nil
	}

	run := func(name string, affine bool) {
		// Fresh nodes per mode: both sides start with cold caches.
		nodeURLs := make([]string, nNodes)
		var cleanup []func()
		for i := range nodeURLs {
			ds := daemon.New(daemon.Config{Shards: 1, CacheMB: 32})
			srv := httptest.NewServer(ds.Handler())
			nodeURLs[i] = srv.URL
			cleanup = append(cleanup, srv.Close, ds.Close)
		}
		defer func() {
			for _, c := range cleanup {
				c()
			}
		}()

		var lat []time.Duration
		var wall time.Duration
		if affine {
			// Hedging off (threshold far beyond any solve): a hedge would
			// warm a replica's cache and blur the affinity measurement.
			gw := cluster.New(nodeURLs, cluster.Options{HedgeAfter: time.Hour})
			defer gw.Close()
			gsrv := httptest.NewServer(gw.Handler())
			defer gsrv.Close()
			lat, wall = drive(stream, *clients, func(_ int, r svReq) (*pathcover.Cover, error) {
				return do(gsrv.URL, r)
			})
		} else {
			rngs := make([]*rand.Rand, *clients)
			for i := range rngs {
				rngs[i] = rand.New(rand.NewPCG(*seed, uint64(i)))
			}
			lat, wall = drive(stream, *clients, func(cli int, r svReq) (*pathcover.Cover, error) {
				return do(nodeURLs[rngs[cli].IntN(nNodes)], r)
			})
		}

		// Aggregate hit rate across the node caches.
		var agg pathcover.CacheStats
		for _, u := range nodeURLs {
			resp, err := client.Get(u + "/stats")
			if err != nil {
				panic(err)
			}
			var peek struct {
				Pool struct {
					Cache *pathcover.CacheStats `json:"cache"`
				} `json:"pool"`
			}
			err = json.NewDecoder(resp.Body).Decode(&peek)
			resp.Body.Close()
			if err != nil {
				panic(err)
			}
			if c := peek.Pool.Cache; c != nil {
				agg.Hits += c.Hits
				agg.Misses += c.Misses
				agg.Coalesced += c.Coalesced
			}
		}
		row(name, fmt.Sprint(*clients), fmt.Sprint(len(stream)), hitPct(&agg),
			fmt.Sprintf("%.2f", wall.Seconds()),
			fmt.Sprintf("%.1f", float64(len(stream))/wall.Seconds()),
			ms(pctl(lat, 0.50)), ms(pctl(lat, 0.99)))
	}
	run("gateway, cache-affine ring", true)
	run("uniform-random node", false)
}

// runServeWidths is the width-tier A/B: one serving-size-class cograph
// catalog whose every entry fits the int16 bound (n ≤ 3270), served
// three times through a pool whose shards are forced to int16, int32
// and int kernels in turn. The graphs, the covers and the simulated
// counters are identical across the three rows — only the index bytes
// moved per element differ — so the wall-clock delta isolates what the
// narrower width buys at the memory wall.
func runServeWidths() {
	shapes := []pathcover.Shape{pathcover.Mixed, pathcover.Balanced, pathcover.Caterpillar}
	sizes := []int{512, 1024, 2048, 3000, pathcover.MaxInt16Vertices}
	catalog := make([]svReq, 0, len(sizes)*len(shapes))
	for i, n := range sizes {
		for j, shape := range shapes {
			g := pathcover.Random(*seed+uint64(i*len(shapes)+j), n, shape)
			catalog = append(catalog, svReq{g: g, want: g.MinPathCoverSize(), exact: true})
		}
	}
	stream := make([]svReq, *reqCount)
	for i := range stream {
		stream[i] = catalog[i%len(catalog)]
	}
	// One client, one shard: a pure-latency A/B. Concurrent clients on a
	// loaded host measure the scheduler, not the kernels — the width
	// delta is a per-solve bandwidth effect and needs sequential solves
	// to show outside of noise. Widths are interleaved request by
	// request (three pools live at once, each request solved on all
	// three back to back) so host drift over the run cancels instead of
	// biasing whichever width ran last.
	header(fmt.Sprintf("S4 — index-width tiers, serving-class catalog of %d cographs (n ≤ %d), %d requests, 1 client, widths interleaved, identical covers per row",
		len(catalog), pathcover.MaxInt16Vertices, len(stream)),
		"forced width", "clients", "requests", "wall s", "req/s", "p50 ms", "p99 ms")
	widths := []pathcover.IndexWidth{pathcover.Width16, pathcover.Width32, pathcover.Width64}
	pools := make([]*pathcover.Pool, len(widths))
	lats := make([][]time.Duration, len(widths))
	walls := make([]time.Duration, len(widths))
	for wi, w := range widths {
		pools[wi] = pathcover.NewPool(pathcover.WithShards(1), pathcover.WithQueueDepth(-1),
			pathcover.WithShardOptions(pathcover.WithSeed(*seed), pathcover.WithIndexWidth(w)))
		defer pools[wi].Close()
		// Warm the shard arena so no width pays first-touch allocation.
		if _, err := pools[wi].MinimumPathCover(context.Background(), catalog[len(catalog)-1].g); err != nil {
			panic(err)
		}
		lats[wi] = make([]time.Duration, 0, len(stream))
	}
	for _, r := range stream {
		for wi := range widths {
			t0 := time.Now()
			cov, err := pools[wi].MinimumPathCover(context.Background(), r.g)
			el := time.Since(t0)
			if err != nil {
				panic(err)
			}
			lats[wi] = append(lats[wi], el)
			walls[wi] += el
			if cov.NumPaths != r.want {
				panic(fmt.Sprintf("S4 width %v: %d paths, want %d", widths[wi], cov.NumPaths, r.want))
			}
			if err := r.g.Verify(cov.Paths); err != nil {
				panic(fmt.Sprintf("S4 width %v: invalid cover: %v", widths[wi], err))
			}
		}
	}
	for wi, w := range widths {
		row(w.String(), "1", fmt.Sprint(len(stream)),
			fmt.Sprintf("%.2f", walls[wi].Seconds()),
			fmt.Sprintf("%.1f", float64(len(stream))/walls[wi].Seconds()),
			ms(pctl(lats[wi], 0.50)), ms(pctl(lats[wi], 0.99)))
	}
}

// buildZipfStream materialises a Zipf repeat-heavy cograph stream: the
// catalog's base graphs each appear under relabelled-isomorphic
// presentations (workload.ZipfRequests), so a canonical-identity cache
// can collapse presentations a Request-keyed registry cannot. One
// *Graph per distinct presentation, shared across its repetitions.
func buildZipfStream(maxLg int, s float64) []svReq {
	reqs := workload.ZipfRequestsClass(*seed, *reqCount, *serveMin, maxLg, *distinct, s, classOrDie())
	built := make(map[workload.Request]svReq, len(reqs))
	out := make([]svReq, len(reqs))
	for i, r := range reqs {
		sr, ok := built[r]
		if !ok {
			g := pathcover.Random(r.Seed, r.N, r.Shape)
			if r.Relabel != 0 {
				g = pathcover.Relabelled(g, r.Relabel)
			}
			sr = svReq{g: g, want: g.MinPathCoverSize(), exact: true}
			built[r] = sr
		}
		out[i] = sr
	}
	return out
}

// hitPct formats a cache's hit rate — requests served without a solve
// (hits plus coalesced waits) over all cache-eligible requests — or "-"
// when there is no cache (or no traffic) to report on.
func hitPct(st *pathcover.CacheStats) string {
	if st == nil {
		return "-"
	}
	total := st.Hits + st.Misses + st.Coalesced
	if total == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f", 100*float64(st.Hits+st.Coalesced)/float64(total))
}

// runServeZipf is the canonical-identity cache benchmark: the same
// Zipf repeat-heavy stream — duplicates and relabelled-isomorphic
// twins drawn from a small catalog — served by an uncached pool and by
// one carrying the canonical-cotree result cache. Reading down the
// cached rows as the Zipf exponent grows shows the p50-vs-hit-rate
// cliff: the hit %% column rises and the cached p50 collapses toward
// the copy-out cost, while the uncached p50 stays put.
func runServeZipf(maxLg int) {
	header(fmt.Sprintf("S3 — canonical-identity cache, Zipf streams of %d requests over %d base graphs ×3 presentations, n in [2^%d, 2^%d)",
		*reqCount, *distinct, *serveMin, maxLg+1),
		"configuration", "zipf s", "hit %", "wall s", "req/s", "p50 ms", "p99 ms")
	for _, s := range []float64{0, 0.8, 1.1, 1.4} {
		stream := buildZipfStream(maxLg, s)
		for _, cached := range []bool{false, true} {
			popts := []pathcover.PoolOption{pathcover.WithQueueDepth(-1),
				pathcover.WithShardOptions(pathcover.WithSeed(*seed))}
			name := "pool, uncached"
			if cached {
				popts = append(popts, pathcover.WithCache(64<<20))
				name = "pool, 64 MiB canonical cache"
			}
			p := pathcover.NewPool(popts...)
			lat, wall := drive(stream, *clients, func(_ int, r svReq) (*pathcover.Cover, error) {
				return p.MinimumPathCover(context.Background(), r.g)
			})
			row(name, fmt.Sprintf("%.1f", s), hitPct(p.Stats().Cache),
				fmt.Sprintf("%.2f", wall.Seconds()),
				fmt.Sprintf("%.1f", float64(len(stream))/wall.Seconds()),
				ms(pctl(lat, 0.50)), ms(pctl(lat, 0.99)))
			p.Close()
		}
	}
}

// runServeBatch compares the batch API, which splits each batch in
// arrival order into one segment per shard, against the same batches
// processed in arrival order on one Solver.
func runServeBatch(stream []svReq, maxLg int) {
	b := *batchSize
	if b < 1 {
		b = 1
	}
	numBatches := (len(stream) + b - 1) / b
	header(fmt.Sprintf("S2 — batch serving, %d-request batches, mixed n in [2^%d, 2^%d)",
		b, *serveMin, maxLg+1),
		"configuration", "batch", "requests", "wall s", "req/s", "p50 ms", "p99 ms")

	batches := make([][]svReq, 0, numBatches)
	for off := 0; off < len(stream); off += b {
		batches = append(batches, stream[off:min(off+b, len(stream))])
	}
	check := func(batch []svReq, covs []*pathcover.Cover) {
		for i, cov := range covs {
			if cov.Exact != batch[i].exact {
				panic(fmt.Sprintf("batch cover %d: exact=%v, expected %v", i, cov.Exact, batch[i].exact))
			}
			if batch[i].want >= 0 && cov.NumPaths != batch[i].want {
				panic(fmt.Sprintf("batch cover %d: %d paths, want %d", i, cov.NumPaths, batch[i].want))
			}
			if err := batch[i].g.Verify(cov.Paths); err != nil {
				panic(fmt.Sprintf("batch cover %d: %v", i, err))
			}
		}
	}

	// Arrival order on one Solver.
	func() {
		sv := pathcover.NewSolver(pathcover.WithSeed(*seed))
		defer sv.Close()
		lat := make([]time.Duration, 0, len(batches))
		start := time.Now()
		for _, batch := range batches {
			t0 := time.Now()
			covs := make([]*pathcover.Cover, len(batch))
			for i, r := range batch {
				cov, err := sv.MinimumPathCover(r.g)
				if err != nil {
					panic(err)
				}
				covs[i] = clonedCover(cov)
			}
			lat = append(lat, time.Since(t0))
			check(batch, covs)
		}
		wall := time.Since(start)
		row("single Solver, arrival order", fmt.Sprint(b), fmt.Sprint(len(stream)),
			fmt.Sprintf("%.2f", wall.Seconds()),
			fmt.Sprintf("%.1f", float64(len(stream))/wall.Seconds()),
			ms(pctl(lat, 0.50)), ms(pctl(lat, 0.99)))
	}()

	// Pool.CoverBatch, split in arrival order across the shards.
	for _, k := range []int{1, 4} {
		p := pathcover.NewPool(pathcover.WithShards(k), pathcover.WithQueueDepth(-1),
			pathcover.WithShardOptions(pathcover.WithSeed(*seed)))
		lat := make([]time.Duration, 0, len(batches))
		start := time.Now()
		for _, batch := range batches {
			gs := make([]*pathcover.Graph, len(batch))
			for i, r := range batch {
				gs[i] = r.g
			}
			t0 := time.Now()
			covs, err := p.CoverBatch(context.Background(), gs)
			if err != nil {
				panic(err)
			}
			lat = append(lat, time.Since(t0))
			check(batch, covs)
		}
		wall := time.Since(start)
		row(fmt.Sprintf("Pool.CoverBatch, %d shards", k), fmt.Sprint(b), fmt.Sprint(len(stream)),
			fmt.Sprintf("%.2f", wall.Seconds()),
			fmt.Sprintf("%.1f", float64(len(stream))/wall.Seconds()),
			ms(pctl(lat, 0.50)), ms(pctl(lat, 0.99)))
		p.Close()
	}
}

// clonedCover deep-copies a Solver-owned cover (arena-backed) into
// caller-owned memory, mirroring what Pool methods do internally. The
// metadata (Exact, Backend, LowerBound, Gap, Stats) rides along.
func clonedCover(cov *pathcover.Cover) *pathcover.Cover {
	paths := make([][]int, len(cov.Paths))
	for i, p := range cov.Paths {
		paths[i] = append([]int(nil), p...)
	}
	out := *cov
	out.Paths = paths
	return &out
}

// nameIndex inverts a graph's vertex naming for the response remap:
// name -> client vertex id. Names must be unique — they are for every
// graph this benchmark builds (the workload constructors name leaves
// v%d / t%d / c%d_%d / leaf%d), and the remap is meaningless otherwise.
func nameIndex(g *pathcover.Graph) map[string]int {
	byName := make(map[string]int, g.N())
	for v := 0; v < g.N(); v++ {
		name := g.Name(v)
		if _, dup := byName[name]; dup {
			panic(fmt.Sprintf("graph has duplicate vertex name %q; cannot remap by name", name))
		}
		byName[name] = v
	}
	return byName
}

// remapPaths rewrites a response's server-numbered paths onto the
// client graph's numbering: server vertex v is the client vertex
// sharing its name (byName from nameIndex). Cotree text re-numbers by
// leaf order on the server's parse; names travel with the vertices
// through every rewrite, so the remapped cover verifies against the
// client's own Graph directly.
func remapPaths(byName map[string]int, paths [][]int, names []string) [][]int {
	out := make([][]int, len(paths))
	for i, p := range paths {
		q := make([]int, len(p))
		for j, v := range p {
			if v < 0 || v >= len(names) {
				panic(fmt.Sprintf("response path vertex %d outside names array (n=%d)", v, len(names)))
			}
			cid, ok := byName[names[v]]
			if !ok {
				panic(fmt.Sprintf("response names vertex %q unknown to the client graph", names[v]))
			}
			q[j] = cid
		}
		out[i] = q
	}
	return out
}

// splitURLs parses the -attack target list: comma-separated base URLs,
// trimmed of whitespace and trailing slashes.
func splitURLs(target string) []string {
	var urls []string
	for _, u := range strings.Split(target, ",") {
		if u = strings.TrimSuffix(strings.TrimSpace(u), "/"); u != "" {
			urls = append(urls, u)
		}
	}
	return urls
}

// runAttack drives a serving target over HTTP: /cover per request from
// C clients, then the same stream in /batch chunks, then a registered-
// graph session run over a Zipf stream. The target is one pathcoverd
// (or pathcover-gateway) URL, or a comma-separated node list fronted
// by an in-process cluster gateway — either way the A-section titles
// stay target-free so gateway and direct-node runs -compare against
// each other; when the target is (or wraps) a gateway, A3 reports the
// per-node routed/retried/hedged breakdown from its stats. Graphs
// travel as cotree text; responses are fully verified client-side.
func runAttack(target string) {
	urls := splitURLs(target)
	if len(urls) == 0 {
		panic("pcbench: -attack got no URLs")
	}
	base := urls[0]
	var gw *cluster.Gateway
	if len(urls) > 1 {
		// Multi-URL: front the nodes with an in-process gateway — the same
		// routing/retry/hedging tier pathcover-gateway serves — and attack
		// through it.
		gw = cluster.New(urls, cluster.Options{})
		defer gw.Close()
		gw.Start()
		gsrv := httptest.NewServer(gw.Handler())
		defer gsrv.Close()
		base = gsrv.URL
		fmt.Printf("\nattack: in-process gateway over %d nodes: %s\n", len(urls), strings.Join(urls, ", "))
	} else {
		fmt.Printf("\nattack: %s\n", base)
	}

	maxLg := min(*maxLog, 14) // HTTP transport: keep bodies sane by default
	stream, edgeSpecs := buildStream(maxLg)
	specs := make(map[*pathcover.Graph]map[string]any, *distinct)
	// Cotree-built graphs travel as cotree text, whose server-side parse
	// numbers vertices by leaf order — a different numbering from the
	// client's Graph. Every request asks for the server's "names" array
	// and responses are remapped onto the client's own numbering by name
	// (names travel with the vertices through every rewrite), so the
	// client's Graph verifies its own covers directly. Edge-list graphs
	// keep their input numbering on both sides; the remap is then the
	// identity and costs one map lookup per vertex.
	remaps := make(map[*pathcover.Graph]map[string]int, *distinct)
	for _, r := range stream {
		if _, ok := specs[r.g]; !ok {
			if edges, isRaw := edgeSpecs[r.g]; isRaw {
				specs[r.g] = map[string]any{"n": r.g.N(), "edges": edges}
			} else {
				specs[r.g] = map[string]any{"cotree": r.g.String()}
			}
			remaps[r.g] = nameIndex(r.g)
		}
	}
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: *clients}}

	exactN, approxN := streamMix(stream)
	header(fmt.Sprintf("A1 — serving attack, %s n in [2^%d, 2^%d), %d requests (%d exact-routed, %d approx-routed; widths %s)",
		classOrDie(), *serveMin, maxLg+1, len(stream), exactN, approxN, widthMix(stream)),
		"configuration", "clients", "requests", "wall s", "req/s", "p50 ms", "p99 ms")

	type coverResp struct {
		NumPaths int      `json:"num_paths"`
		Paths    [][]int  `json:"paths"`
		Names    []string `json:"names"`
		Exact    bool     `json:"exact"`
		Backend  string   `json:"backend"`
		Gap      int      `json:"gap"`
	}
	remap := func(g *pathcover.Graph, paths [][]int, names []string) [][]int {
		return remapPaths(remaps[g], paths, names)
	}
	finish := func(path string, resp *http.Response, err error, dst any) error {
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		payload, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, payload)
		}
		return json.Unmarshal(payload, dst)
	}
	post := func(path string, body any, dst any) error {
		blob, err := json.Marshal(body)
		if err != nil {
			return err
		}
		resp, err := client.Post(base+path, "application/json", bytes.NewReader(blob))
		return finish(path, resp, err, dst)
	}
	get := func(path string, dst any) error {
		resp, err := client.Get(base + path)
		return finish(path, resp, err, dst)
	}

	lat, wall := drive(stream, *clients, func(_ int, r svReq) (*pathcover.Cover, error) {
		var out coverResp
		if err := post("/cover?include_names=1", specs[r.g], &out); err != nil {
			return nil, err
		}
		return &pathcover.Cover{Paths: remap(r.g, out.Paths, out.Names), NumPaths: out.NumPaths, Exact: out.Exact}, nil
	})
	serveRow("attack /cover", len(stream), lat, wall)

	// Batch rounds.
	b := *batchSize
	var blat []time.Duration
	start := time.Now()
	for off := 0; off < len(stream); off += b {
		end := min(off+b, len(stream))
		graphs := make([]map[string]any, 0, end-off)
		for i := off; i < end; i++ {
			graphs = append(graphs, specs[stream[i].g])
		}
		var out struct {
			Covers []coverResp `json:"covers"`
		}
		t0 := time.Now()
		err := post("/batch", map[string]any{"graphs": graphs, "include_names": true}, &out)
		blat = append(blat, time.Since(t0))
		if err != nil {
			panic(err)
		}
		if len(out.Covers) != end-off {
			panic(fmt.Sprintf("batch returned %d covers for %d graphs", len(out.Covers), end-off))
		}
		for i, cov := range out.Covers {
			r := stream[off+i]
			if cov.Exact != r.exact {
				panic(fmt.Sprintf("batch cover %d: exact=%v, expected %v", off+i, cov.Exact, r.exact))
			}
			if r.want >= 0 && cov.NumPaths != r.want {
				panic(fmt.Sprintf("batch cover %d: %d paths, want %d", off+i, cov.NumPaths, r.want))
			}
			if err := r.g.Verify(remap(r.g, cov.Paths, cov.Names)); err != nil {
				panic(fmt.Sprintf("batch cover %d: %v", off+i, err))
			}
		}
	}
	bwall := time.Since(start)
	row("attack /batch", fmt.Sprint(*clients), fmt.Sprint(len(stream)),
		fmt.Sprintf("%.2f", bwall.Seconds()),
		fmt.Sprintf("%.1f", float64(len(stream))/bwall.Seconds()),
		ms(pctl(blat, 0.50)), ms(pctl(blat, 0.99)))

	// A2 — registered-graph sessions: every distinct presentation of a
	// Zipf stream is registered once (POST /graphs), then the stream is
	// served by id (GET /cover?id=) — no graph bytes on the hot path.
	// The hit %% column is the server cache's delta over this run read
	// from /stats; relabelled twins of one base graph share a canonical
	// entry, so with a cached daemon the hit rate far exceeds what
	// presentation-keyed duplicates alone could deliver ("-" when the
	// daemon runs uncached).
	type cachePeek struct {
		Pool struct {
			Cache *pathcover.CacheStats `json:"cache"`
		} `json:"pool"`
	}
	readCache := func() *pathcover.CacheStats {
		var st cachePeek
		if err := get("/stats", &st); err != nil {
			panic(err)
		}
		return st.Pool.Cache
	}

	const zipfS = 1.1
	zstream := buildZipfStream(maxLg, zipfS)
	ids := make(map[*pathcover.Graph]string, len(zstream))
	var idMu sync.Mutex
	register := func(g *pathcover.Graph) error {
		var info struct {
			ID string `json:"id"`
		}
		if err := post("/graphs", map[string]any{"cotree": g.String()}, &info); err != nil {
			return err
		}
		if info.ID == "" {
			return fmt.Errorf("POST /graphs returned no id")
		}
		idMu.Lock()
		ids[g] = info.ID
		idMu.Unlock()
		return nil
	}
	for _, r := range zstream {
		if _, ok := ids[r.g]; ok {
			continue
		}
		if err := register(r.g); err != nil {
			panic(err)
		}
		remaps[r.g] = nameIndex(r.g)
	}

	header(fmt.Sprintf("A2 — registered-graph sessions, Zipf(%.1f) stream of %d requests over %d registered presentations",
		zipfS, len(zstream), len(ids)),
		"configuration", "clients", "requests", "hit %", "wall s", "req/s", "p50 ms", "p99 ms")
	before := readCache()
	getCode := func(path string, dst any) (int, error) {
		resp, err := client.Get(base + path)
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		payload, err := io.ReadAll(resp.Body)
		if err != nil {
			return resp.StatusCode, err
		}
		if resp.StatusCode != http.StatusOK {
			return resp.StatusCode, fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, payload)
		}
		return resp.StatusCode, json.Unmarshal(payload, dst)
	}
	zlat, zwall := drive(zstream, *clients, func(_ int, r svReq) (*pathcover.Cover, error) {
		var out coverResp
		for attempt := 0; ; attempt++ {
			idMu.Lock()
			id := ids[r.g]
			idMu.Unlock()
			code, err := getCode("/cover?id="+id+"&include_names=1", &out)
			if err == nil {
				break
			}
			// A restarted node comes back with an empty registry, so its
			// ids answer 404 (and a dying hop can surface as 502/503).
			// Re-register and retry: the session survives node churn, which
			// is exactly what the cluster-smoke kill exercises.
			if attempt < 8 && (code == http.StatusNotFound ||
				code == http.StatusBadGateway || code == http.StatusServiceUnavailable) {
				if rerr := register(r.g); rerr == nil {
					continue
				}
			}
			return nil, err
		}
		return &pathcover.Cover{Paths: remap(r.g, out.Paths, out.Names), NumPaths: out.NumPaths, Exact: out.Exact}, nil
	})
	after := readCache()
	hit := "-"
	if before != nil && after != nil {
		hit = hitPct(&pathcover.CacheStats{
			Hits:      after.Hits - before.Hits,
			Misses:    after.Misses - before.Misses,
			Coalesced: after.Coalesced - before.Coalesced,
		})
	}
	row("attack GET /cover?id=", fmt.Sprint(*clients), fmt.Sprint(len(zstream)), hit,
		fmt.Sprintf("%.2f", zwall.Seconds()),
		fmt.Sprintf("%.1f", float64(len(zstream))/zwall.Seconds()),
		ms(pctl(zlat, 0.50)), ms(pctl(zlat, 0.99)))

	// Deregister the session graphs so repeated attacks against one
	// daemon don't accumulate registry residents (and so DELETE gets
	// exercised outside the smoke test). Node churn may already have
	// emptied a restarted registry — its ids answer 404, which is the
	// outcome deletion wanted, so 404 passes.
	for _, id := range ids {
		req, err := http.NewRequest(http.MethodDelete, base+"/graphs/"+id, nil)
		if err != nil {
			panic(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			panic(fmt.Sprintf("DELETE /graphs/%s: %v", id, err))
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
			panic(fmt.Sprintf("DELETE /graphs/%s: HTTP %d", id, resp.StatusCode))
		}
	}

	// A3 — per-node routing counters: from the in-process gateway when
	// -attack got a node list, else from the target's /stats when it is
	// a pathcover-gateway. A plain daemon has no nodes table and skips
	// the section; when present, the title and columns are target-free
	// so gateway and multi-node runs -compare against each other.
	var st cluster.GatewayStats
	if gw != nil {
		st = gw.Stats()
	} else {
		var peek struct {
			Gateway cluster.GatewayStats `json:"gateway"`
		}
		if err := get("/stats", &peek); err != nil {
			return
		}
		st = peek.Gateway
	}
	if len(st.Nodes) == 0 {
		return
	}
	header("A3 — per-node cluster routing counters",
		"node", "state", "routed", "retried", "hedged", "ejections", "readmissions")
	for _, ns := range st.Nodes {
		row(ns.Name, ns.State, fmt.Sprint(ns.Routed), fmt.Sprint(ns.Retried),
			fmt.Sprint(ns.Hedged), fmt.Sprint(ns.Ejections), fmt.Sprint(ns.Readmissions))
	}
	row("total", "-", fmt.Sprint(st.Routed), fmt.Sprint(st.Retries),
		fmt.Sprint(st.Hedged), fmt.Sprint(st.Ejections), fmt.Sprint(st.Readmissions))
}
