package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pathcover/internal/daemon"
)

// serveTiny answers every request of a tiny stream through the daemon's
// handler and returns the decoded replies.
func serveTiny(t *testing.T, reqs []request) []coverReply {
	t.Helper()
	srv := daemon.New(daemon.Config{CacheMB: 64, LogOutput: io.Discard})
	defer srv.Close()
	out := make([]coverReply, len(reqs))
	for i, r := range reqs {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/cover?include_names=1", bytes.NewReader(r.body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &out[i]); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func TestCheckAcceptsServedAnswers(t *testing.T) {
	for _, gen := range []func(uint64, int, sizes) []request{genCotreeCold, genZipf, genEdgelist} {
		reqs := gen(7, 16, tinySizes)
		for i, r := range serveTiny(t, reqs) {
			g, err := graphOf(reqs[i].body)
			if err != nil {
				t.Fatal(err)
			}
			if err := checkReply(g, reqs[i].kind, &r); err != nil {
				t.Errorf("request %d (%s): %v", i, reqs[i].kind, err)
			}
		}
	}
}

func TestCheckRejectsCorruptedAnswers(t *testing.T) {
	reqs := genEdgelist(3, 4, tinySizes) // cograph, tree, sparse, near-cograph
	replies := serveTiny(t, reqs)
	clone := func(r coverReply) coverReply {
		c := r
		c.Paths = make([][]int, len(r.Paths))
		for i, p := range r.Paths {
			c.Paths[i] = append([]int(nil), p...)
		}
		c.Names = append([]string(nil), r.Names...)
		return c
	}
	longest := func(r *coverReply) int {
		best := 0
		for i, p := range r.Paths {
			if len(p) > len(r.Paths[best]) {
				best = i
			}
		}
		return best
	}
	cases := []struct {
		name    string
		req     int
		corrupt func(r *coverReply)
		want    string
	}{
		{"vertex dropped", 0, func(r *coverReply) {
			i := longest(r)
			r.Paths[i] = r.Paths[i][1:]
		}, ""},
		{"path split: not minimum", 0, func(r *coverReply) {
			i := longest(r)
			p := r.Paths[i]
			r.Paths[i] = p[:1]
			r.Paths = append(r.Paths, p[1:])
			r.NumPaths++
		}, ""},
		{"unknown name", 1, func(r *coverReply) { r.Names[0] = "nobody" }, "unknown vertex name"},
		{"tree answered approx", 1, func(r *coverReply) { r.Exact, r.Backend = false, "approx" }, "tree answered"},
		{"lower bound above paths", 2, func(r *coverReply) {
			r.LowerBound = r.NumPaths + 1
			r.Gap = -1
		}, "lower_bound"},
		{"approx claimed exact", 3, func(r *coverReply) { r.Exact, r.Backend = true, "cograph" }, "no exact route"},
	}
	for _, c := range cases {
		g, err := graphOf(reqs[c.req].body)
		if err != nil {
			t.Fatal(err)
		}
		r := clone(replies[c.req])
		if err := checkReply(g, reqs[c.req].kind, &r); err != nil {
			t.Fatalf("%s: uncorrupted answer rejected: %v", c.name, err)
		}
		c.corrupt(&r)
		err = checkReply(g, reqs[c.req].kind, &r)
		if err == nil {
			t.Errorf("%s: corrupted answer accepted", c.name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestCheckAllSkipsFailures(t *testing.T) {
	reqs := genCotreeCold(1, 2, tinySizes)
	replies := serveTiny(t, reqs)
	body, err := json.Marshal(replies[0])
	if err != nil {
		t.Fatal(err)
	}
	got := checkAll(reqs, []sample{{status: 200, body: body}, {status: 503}})
	if got[0].err != nil || got[0].reply.NumPaths != replies[0].NumPaths {
		t.Errorf("served answer: %+v", got[0])
	}
	if got[1].err != nil {
		t.Errorf("a failed request is a failure, not a wrong answer: %v", got[1].err)
	}
}
