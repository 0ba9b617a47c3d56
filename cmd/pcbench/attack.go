package main

// The HTTP load generator: pcbench -attack URL drives one running
// pathcoverd or pathcover-gateway with a mixed catalog (cographs as
// cotree text; trees, sparse graphs and near-cographs as edge lists),
// first one /cover per request from -clients concurrent clients, then
// the same stream in /batch chunks. Both rows go through the same
// header/row plumbing as the e-experiments, so -json reports them.
//
// Latency columns are wall clock (p50/p99 over per-request samples);
// throughput is requests per second over the whole run. Every returned
// cover is verified client-side (Graph.Verify, plus the optimum's size
// where the route is exact) outside the latency window.

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pathcover"
	"pathcover/internal/workload"
)

var (
	attackURL = flag.String("attack", "", "base URL of one pathcoverd or pathcover-gateway to load-test instead of running the e-experiments")
	clients   = flag.Int("clients", 4*runtime.GOMAXPROCS(0), "concurrent /cover clients of the attack")
	reqCount  = flag.Int("requests", 256, "requests in the attack stream")
	serveMin  = flag.Int("servemin", 10, "smallest catalog-graph bucket as a power of two (sizes are log-uniform in [2^servemin, 2^(max+1)), max capped at 14)")
	distinct  = flag.Int("distinct", 24, "distinct graphs in the attack catalog")
)

// attackBatch is the number of graphs per /batch request.
const attackBatch = 32

// svReq is one materialised request: the graph, its wire form, the
// name index that maps a response back onto g's numbering, its
// precomputed optimum (-1 when the entry routes to the approximation
// backend and has no known optimum), and whether the route is exact.
//
// Cotree text is renumbered by leaf order on the server's parse, so
// every request asks for the server's "names" array and the response
// is remapped onto g by name (names travel with the vertices through
// every rewrite); g then verifies its own covers. Edge lists keep
// their numbering on both sides, and the remap is the identity.
type svReq struct {
	g      *pathcover.Graph
	spec   map[string]any
	byName map[string]int
	want   int
	exact  bool
}

// buildStream materialises the request stream: one svReq per distinct
// catalog entry, shared across its repetitions as a serving layer's
// graph registry would share it, with the optimum precomputed where
// the route is exact.
func buildStream(maxLg int) []svReq {
	reqs := workload.MixedRequests(*seed, *reqCount, *serveMin, maxLg, *distinct)
	built := make(map[workload.Request]svReq)
	for _, r := range workload.Catalog(reqs) {
		var sr svReq
		if r.Kind == workload.KindCograph {
			g := pathcover.Random(r.Seed, r.N, r.Shape)
			sr = svReq{g: g, spec: map[string]any{"cotree": g.String()}, want: g.MinPathCoverSize(), exact: true}
		} else {
			edges := r.Edges()
			g, err := pathcover.FromEdgesAny(r.N, edges, nil)
			if err != nil {
				panic(fmt.Sprintf("catalog %v: %v", r, err))
			}
			// Exact routes (cograph if recognition surprises us, tree for
			// forests) have a computable optimum; the approximation route
			// does not, so only validity is asserted for those covers.
			sr = svReq{g: g, spec: map[string]any{"n": r.N, "edges": edges}, want: -1}
			if g.IsCograph() || g.IsForest() {
				sr.exact = true
				sr.want = g.MinPathCoverSize()
			}
		}
		sr.byName = nameIndex(sr.g)
		built[r] = sr
	}
	out := make([]svReq, len(reqs))
	for i, r := range reqs {
		out[i] = built[r]
	}
	return out
}

// streamMix counts the exact- and approx-routed requests of a stream
// for the table header.
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
// the table header, e.g. "201 int16 / 55 int32 / 0 int".
func widthMix(stream []svReq) string {
	counts := map[string]int{}
	for _, r := range stream {
		counts[pathcover.RouteWidth(r.g.N())]++
	}
	return fmt.Sprintf("%d int16 / %d int32 / %d int",
		counts["int16"], counts["int32"], counts["int"])
}

// checkCover panics unless cov is a valid cover of r.g on the expected
// route, with the optimum's path count where that is known.
func checkCover(what string, i int, r svReq, cov *pathcover.Cover) {
	if cov.Exact != r.exact {
		panic(fmt.Sprintf("%s %d: exact=%v, expected %v", what, i, cov.Exact, r.exact))
	}
	if r.want >= 0 && cov.NumPaths != r.want {
		panic(fmt.Sprintf("%s %d: %d paths, want %d", what, i, cov.NumPaths, r.want))
	}
	if err := r.g.Verify(cov.Paths); err != nil {
		panic(fmt.Sprintf("%s %d: invalid cover: %v", what, i, err))
	}
}

// drive runs the stream through call from c concurrent clients and
// returns the per-request latencies plus the total wall time. The
// cover returned by call is verified outside the latency window.
func drive(stream []svReq, c int, call func(r svReq) (*pathcover.Cover, error)) ([]time.Duration, time.Duration) {
	lat := make([]time.Duration, len(stream))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < c; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(stream) {
					return
				}
				r := stream[i]
				t0 := time.Now()
				cov, err := call(r)
				lat[i] = time.Since(t0)
				if err != nil {
					panic(fmt.Sprintf("request %d: %v", i, err))
				}
				checkCover("request", i, r, cov)
			}
		}()
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

func attackRow(name string, count int, lat []time.Duration, wall time.Duration) {
	row(name,
		fmt.Sprint(*clients),
		fmt.Sprint(count),
		fmt.Sprintf("%.2f", wall.Seconds()),
		fmt.Sprintf("%.1f", float64(count)/wall.Seconds()),
		ms(pctl(lat, 0.50)),
		ms(pctl(lat, 0.99)))
}

// nameIndex inverts a graph's vertex naming for the response remap:
// name -> client vertex id. Names must be unique — they are for every
// graph this command builds (the workload constructors name leaves
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
// sharing its name (byName from nameIndex).
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

// coverResp is the part of a /cover answer (or one /batch entry) the
// attack reads.
type coverResp struct {
	NumPaths int      `json:"num_paths"`
	Paths    [][]int  `json:"paths"`
	Names    []string `json:"names"`
	Exact    bool     `json:"exact"`
}

// cover remaps the response onto r.g's numbering.
func (c *coverResp) cover(r svReq) *pathcover.Cover {
	return &pathcover.Cover{Paths: remapPaths(r.byName, c.Paths, c.Names), NumPaths: c.NumPaths, Exact: c.Exact}
}

// runAttack drives one serving target over HTTP and prints table A1:
// a /cover per request from -clients concurrent clients, then the same
// stream in /batch requests of attackBatch graphs each, sent one at a
// time. The title is target-free, so gateway and direct-node runs
// -compare against each other.
func runAttack(base string) {
	base = strings.TrimSuffix(strings.TrimSpace(base), "/")
	fmt.Printf("\nattack: %s\n", base)

	maxLg := min(*maxLog, 14) // HTTP transport: keep bodies sane by default
	stream := buildStream(maxLg)
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: *clients}}

	exactN, approxN := streamMix(stream)
	header(fmt.Sprintf("A1 — serving attack, n in [2^%d, 2^%d), %d requests (%d exact-routed, %d approx-routed; widths %s)",
		*serveMin, maxLg+1, len(stream), exactN, approxN, widthMix(stream)),
		"configuration", "clients", "requests", "wall s", "req/s", "p50 ms", "p99 ms")

	post := func(path string, body any, dst any) error {
		blob, err := json.Marshal(body)
		if err != nil {
			return err
		}
		resp, err := client.Post(base+path, "application/json", bytes.NewReader(blob))
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

	lat, wall := drive(stream, *clients, func(r svReq) (*pathcover.Cover, error) {
		var out coverResp
		if err := post("/cover?include_names=1", r.spec, &out); err != nil {
			return nil, err
		}
		return out.cover(r), nil
	})
	attackRow("attack /cover", len(stream), lat, wall)

	var blat []time.Duration
	start := time.Now()
	for off := 0; off < len(stream); off += attackBatch {
		batch := stream[off:min(off+attackBatch, len(stream))]
		graphs := make([]map[string]any, len(batch))
		for i, r := range batch {
			graphs[i] = r.spec
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
		if len(out.Covers) != len(batch) {
			panic(fmt.Sprintf("batch returned %d covers for %d graphs", len(out.Covers), len(batch)))
		}
		for i, r := range batch {
			checkCover("batch cover", off+i, r, out.Covers[i].cover(r))
		}
	}
	attackRow("attack /batch", len(stream), blat, time.Since(start))
}
