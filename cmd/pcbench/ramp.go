package main

// A4 — the saturation ramp. Unlike A1–A3, which drive the -attack
// target, the ramp boots its own in-process daemon with cost shedding
// enabled, because the scenario is about the control plane: offered
// load doubles stage by stage and the table shows the daemon shedding
// (degrading covers to the approximation backend, rejecting with 503 +
// Retry-After) instead of collapsing. Columns are wall-clock and
// admission counts, so -compare never gates them (only simtime/simwork
// columns gate).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pathcover"
	"pathcover/internal/daemon"
)

// rampStage is one load level of the ramp: a client count held for a
// fixed window, classified into admitted-exact / degraded / shed.
type rampStage struct {
	clients  int
	offered  int64
	ok       int64
	degraded int64
	shed     int64
	lat      []time.Duration // admitted (HTTP 200) request latencies
}

// runAttackRamp runs the A4 saturation ramp against a self-hosted
// daemon with the default shard geometry and panics unless the ramp
// demonstrates shedding (degrades or rejects).
func runAttackRamp() {
	s := daemon.New(daemon.Config{
		Queue:     -1, // unbounded: the QoS layer, not saturation, does the shedding
		CacheMB:   0,  // every request must solve, or there is no load to shed
		ShedAfter: 15 * time.Millisecond,
	})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// The request mix: mid-sized cographs as cotree text (implicit edge
	// set, so over budget they can only be rejected) interleaved with
	// edge-list trees (explicit edge set, so over budget they degrade to
	// the approximation backend) — together they exercise both shedding
	// verdicts. Distinct seeds and no cache keep every request a real
	// solve.
	var bodies [][]byte
	for i := 0; i < 8; i++ {
		g := pathcover.Random(*seed+uint64(i), 1024+128*i, pathcover.Balanced)
		blob, err := json.Marshal(map[string]any{"cotree": g.String()})
		if err != nil {
			panic(err)
		}
		bodies = append(bodies, blob)
	}
	rng := rand.New(rand.NewPCG(*seed, 0xa4))
	for i := 0; i < 4; i++ {
		n := 4096 + 1024*i
		edges := make([][2]int, 0, n-1)
		for v := 1; v < n; v++ {
			edges = append(edges, [2]int{rng.IntN(v), v})
		}
		blob, err := json.Marshal(map[string]any{"n": n, "edges": edges})
		if err != nil {
			panic(err)
		}
		bodies = append(bodies, blob)
	}

	stages := []int{1, 2, 4, 8, 16, 32}
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: stages[len(stages)-1]}}
	type rampResp struct {
		NumPaths int  `json:"num_paths"`
		Exact    bool `json:"exact"`
		Degraded bool `json:"degraded"`
	}
	post := func(i int) (status int, out rampResp, retryAfter string, err error) {
		resp, err := client.Post(srv.URL+"/cover", "application/json",
			bytes.NewReader(bodies[i%len(bodies)]))
		if err != nil {
			return 0, out, "", err
		}
		defer resp.Body.Close()
		payload, err := io.ReadAll(resp.Body)
		if err != nil {
			return resp.StatusCode, out, "", err
		}
		if resp.StatusCode == http.StatusOK {
			err = json.Unmarshal(payload, &out)
		}
		return resp.StatusCode, out, resp.Header.Get("Retry-After"), err
	}

	// Seed the cost estimator with unloaded solves so the first loaded
	// stage already has a per-vertex cost to project from.
	for i := 0; i < 2*len(bodies); i++ {
		if code, _, _, err := post(i); err != nil || code != http.StatusOK {
			panic(fmt.Sprintf("A4 warmup request %d: HTTP %d, %v", i, code, err))
		}
	}

	const window = 600 * time.Millisecond
	results := make([]*rampStage, 0, len(stages))
	for _, c := range stages {
		st := &rampStage{clients: c}
		var mu sync.Mutex
		var stop atomic.Bool
		var wg sync.WaitGroup
		for w := 0; w < c; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; !stop.Load(); i++ {
					t0 := time.Now()
					code, out, retry, err := post(i)
					el := time.Since(t0)
					if err != nil {
						panic(fmt.Sprintf("A4 stage %d clients: %v", c, err))
					}
					atomic.AddInt64(&st.offered, 1)
					switch {
					case code == http.StatusOK && out.Degraded:
						if out.Exact {
							panic("A4: degraded cover claims exact")
						}
						atomic.AddInt64(&st.degraded, 1)
						mu.Lock()
						st.lat = append(st.lat, el)
						mu.Unlock()
					case code == http.StatusOK:
						atomic.AddInt64(&st.ok, 1)
						mu.Lock()
						st.lat = append(st.lat, el)
						mu.Unlock()
					case code == http.StatusServiceUnavailable:
						if retry == "" {
							panic("A4: 503 without a Retry-After header")
						}
						atomic.AddInt64(&st.shed, 1)
					default:
						panic(fmt.Sprintf("A4 stage %d clients: HTTP %d", c, code))
					}
				}
			}(w)
		}
		time.Sleep(window)
		stop.Store(true)
		wg.Wait()
		results = append(results, st)
	}

	header(fmt.Sprintf("A4 — saturation ramp, self-hosted daemon (%d shards, shed budget 15ms), %v per stage",
		s.Pool().NumShards(), window),
		"clients", "offered", "ok", "degraded", "rejected", "p99 ms")
	var totDegraded, totShed int64
	for _, st := range results {
		totDegraded += st.degraded
		totShed += st.shed
		p99 := "-"
		if len(st.lat) > 0 {
			sort.Slice(st.lat, func(a, b int) bool { return st.lat[a] < st.lat[b] })
			p99 = ms(pctl(st.lat, 0.99))
		}
		row(fmt.Sprint(st.clients), fmt.Sprint(st.offered), fmt.Sprint(st.ok),
			fmt.Sprint(st.degraded), fmt.Sprint(st.shed), p99)
	}

	// Shed-not-collapse: the ramp must have exercised the QoS layer. A
	// run where every request was admitted exactly means the budget never
	// bound, and the scenario proved nothing.
	if totDegraded+totShed == 0 {
		panic("A4: ramp finished without shedding a single request (no degrades, no 503s)")
	}
}
