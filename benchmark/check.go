package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"pathcover"
)

// wireSpec is the graph part of a /cover request body.
type wireSpec struct {
	Cotree string   `json:"cotree,omitempty"`
	N      int      `json:"n,omitempty"`
	Edges  [][2]int `json:"edges,omitempty"`
}

// coverReply is the part of a /cover response the checks read.
type coverReply struct {
	N          int      `json:"n"`
	NumPaths   int      `json:"num_paths"`
	Paths      [][]int  `json:"paths"`
	Names      []string `json:"names"`
	Exact      bool     `json:"exact"`
	Backend    string   `json:"backend"`
	LowerBound int      `json:"lower_bound"`
	Gap        int      `json:"gap"`
	Stats      struct {
		Time int64 `json:"time"`
		Work int64 `json:"work"`
	} `json:"stats"`
}

// buildGraph builds the request's graph in process, the way the daemon
// does: cotree text through ParseCotree, edge lists through
// FromEdgesAny.
func buildGraph(spec *wireSpec) (*pathcover.Graph, error) {
	if spec.Cotree != "" {
		return pathcover.ParseCotree(spec.Cotree)
	}
	return pathcover.FromEdgesAny(spec.N, spec.Edges, nil)
}

// graphOf decodes a request body and builds its graph.
func graphOf(body []byte) (*pathcover.Graph, error) {
	var spec wireSpec
	if err := json.Unmarshal(body, &spec); err != nil {
		return nil, fmt.Errorf("decode request: %w", err)
	}
	return buildGraph(&spec)
}

// checkReply verifies one response against the request's graph g: the
// paths, remapped through the response's names onto g's numbering, must
// be a valid cover; exact answers must be minimum (Graph.Verify checks
// minimality on cographs and forests); approximate answers must carry a
// certified lower bound no larger than the path count. The route must
// suit the request's kind.
func checkReply(g *pathcover.Graph, k kind, r *coverReply) error {
	if r.N != g.N() {
		return fmt.Errorf("n=%d, want %d", r.N, g.N())
	}
	if len(r.Paths) != r.NumPaths {
		return fmt.Errorf("num_paths=%d but %d paths", r.NumPaths, len(r.Paths))
	}
	if len(r.Names) != r.N {
		return fmt.Errorf("%d names for %d vertices", len(r.Names), r.N)
	}
	local := make(map[string]int, g.N())
	for v := 0; v < g.N(); v++ {
		local[g.Name(v)] = v
	}
	paths := make([][]int, len(r.Paths))
	for i, p := range r.Paths {
		paths[i] = make([]int, len(p))
		for j, v := range p {
			if v < 0 || v >= len(r.Names) {
				return fmt.Errorf("vertex id %d out of range", v)
			}
			u, ok := local[r.Names[v]]
			if !ok {
				return fmt.Errorf("unknown vertex name %q", r.Names[v])
			}
			paths[i][j] = u
		}
	}
	switch k {
	case kindCotree, kindCograph, kindLibrary:
		if !r.Exact || r.Backend != "cograph" {
			return fmt.Errorf("cograph answered exact=%v backend=%q", r.Exact, r.Backend)
		}
	case kindTree:
		if !r.Exact || r.Backend != "tree" {
			return fmt.Errorf("tree answered exact=%v backend=%q", r.Exact, r.Backend)
		}
	}
	if r.Exact && !g.IsCograph() && !g.IsForest() {
		return errors.New("exact claim on a graph with no exact route")
	}
	if !r.Exact {
		if r.Backend != "approx" {
			return fmt.Errorf("inexact answer from backend %q", r.Backend)
		}
		if r.LowerBound < 1 || r.LowerBound > r.NumPaths || r.Gap != r.NumPaths-r.LowerBound {
			return fmt.Errorf("lower_bound=%d gap=%d for %d paths", r.LowerBound, r.Gap, r.NumPaths)
		}
	}
	return g.Verify(paths)
}

// checked is the outcome of checking one response.
type checked struct {
	reply coverReply
	err   error
}

// checkAll verifies every 200 response on GOMAXPROCS goroutines and
// drops the response bodies. Non-200 samples are skipped (they count as
// failures, not as wrong answers).
func checkAll(reqs []request, samples []sample) []checked {
	out := make([]checked, len(samples))
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(samples); i += workers {
				if samples[i].status != 200 {
					continue
				}
				out[i] = checkOne(reqs[i], samples[i].body)
				// Keep only the summary fields: a run holds thousands.
				out[i].reply.Paths, out[i].reply.Names = nil, nil
				samples[i].body = nil
			}
		}(w)
	}
	wg.Wait()
	return out
}

func checkOne(req request, body []byte) checked {
	var c checked
	if err := json.Unmarshal(body, &c.reply); err != nil {
		c.err = fmt.Errorf("decode response: %w", err)
		return c
	}
	g, err := graphOf(req.body)
	if err != nil {
		c.err = err
		return c
	}
	c.err = checkReply(g, req.kind, &c.reply)
	return c
}
