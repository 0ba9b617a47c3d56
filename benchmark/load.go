package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"sync"
	"time"

	"pathcover"
)

// sample is the outcome of one measured request.
type sample struct {
	status int           // HTTP status; 0 for a transport error
	lat    time.Duration // send to last response byte
	body   []byte
}

// dispenser hands out stream indices to closed-loop clients. Once the
// deadline has passed and at least minCount indices are out, it stops at
// the next multiple of block, so the measured requests are always the
// contiguous prefix [0, stop) of the stream.
type dispenser struct {
	mu       sync.Mutex
	next     int
	stop     int
	done     int // requests completed
	deadline time.Time
	minCount int
	block    int
	// atMin, when set, runs once, on the goroutine that completes the
	// minCount-th request.
	atMin func()
}

func (d *dispenser) take() (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.next >= d.stop {
		return 0, false
	}
	if d.next >= d.minCount && d.next%d.block == 0 && !time.Now().Before(d.deadline) {
		d.stop = d.next
		return 0, false
	}
	i := d.next
	d.next++
	return i, true
}

// finish records one completed request.
func (d *dispenser) finish() {
	d.mu.Lock()
	d.done++
	reached := d.done == d.minCount
	d.mu.Unlock()
	if reached && d.atMin != nil {
		d.atMin()
	}
}

// newClient returns a keep-alive HTTP client for conns connections.
func newClient(conns int) *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = conns
	tr.DisableCompression = true
	return &http.Client{Transport: tr}
}

// post sends one /cover request and reads the whole response.
func post(ctx context.Context, client *http.Client, url string, body []byte) sample {
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return sample{lat: time.Since(start)}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return sample{lat: time.Since(start)}
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s := sample{status: resp.StatusCode, lat: time.Since(start), body: out}
	if err != nil {
		s.status = 0
	}
	return s
}

// coverURL is the request line every HTTP workload sends.
func coverURL(base string) string { return base + "/cover?include_names=1" }

// closedLoop runs clients closed-loop connections over reqs until the
// dispenser stops (d.stop must not exceed len(reqs)), and returns the
// samples of [0, stop) in stream order plus the phase's wall time.
func closedLoop(ctx context.Context, client *http.Client, url string, reqs []request, clients int, d *dispenser) ([]sample, time.Duration) {
	out := make([]sample, len(reqs))
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := d.take()
				if !ok {
					return
				}
				out[i] = post(ctx, client, url, reqs[i].body)
				d.finish()
			}
		}()
	}
	wg.Wait()
	return out[:d.stop], time.Since(start)
}

// sequential sends reqs one at a time (the warm-up pass).
func sequential(ctx context.Context, client *http.Client, url string, reqs []request) []sample {
	out := make([]sample, len(reqs))
	for i, r := range reqs {
		out[i] = post(ctx, client, url, r.body)
	}
	return out
}

// libraryCall is one measured in-process call: its latency and a
// fingerprint of the returned cover, checked after the phase.
type libraryCall struct {
	lat   time.Duration
	err   error
	print uint64
	paths int
}

// fingerprint hashes a cover's paths (FNV-1a over vertex ids and path
// ends).
func fingerprint(paths [][]int) uint64 {
	h := uint64(14695981039346656037)
	for _, p := range paths {
		for _, v := range p {
			h = (h ^ uint64(v)) * 1099511628211
		}
		h = (h ^ 0xffffffff) * 1099511628211
	}
	return h
}

// libraryLoop calls Graph.MinimumPathCover on graphs in cyclic order
// until the dispenser stops; covers are fingerprinted, not kept.
func libraryLoop(graphs []*pathcover.Graph, d *dispenser) ([]libraryCall, time.Duration) {
	var out []libraryCall
	start := time.Now()
	for {
		i, ok := d.take()
		if !ok {
			break
		}
		t := time.Now()
		cov, err := graphs[i%len(graphs)].MinimumPathCover()
		c := libraryCall{lat: time.Since(t), err: err}
		if err == nil {
			c.print, c.paths = fingerprint(cov.Paths), cov.NumPaths
		}
		out = append(out, c)
		d.finish()
	}
	return out, time.Since(start)
}
