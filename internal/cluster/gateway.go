// Package cluster is the fault-tolerant serving tier over a fleet of
// pathcoverd nodes: a consistent-hash ring keyed on canonical graph
// identity (isomorphic graphs route to the node whose result cache is
// warm), health-checked membership with ejection and probation-based
// readmission, exponential-backoff retries that honor Retry-After, and
// order-preserving /batch fan-out.
// cmd/pathcover-gateway wraps it behind flags; the spawn half
// (spawn.go) forks local daemons so one binary is a whole test
// cluster.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"pathcover"
	"pathcover/internal/canon"
)

// Options tune the gateway. The zero value serves with the documented
// defaults.
type Options struct {
	// VNodes is the virtual-node count per ring member (0 = 128).
	VNodes int
	// MaxAttempts caps the attempts of one request chain, first try
	// included (0 = max(4, node count)); attempts walk the key's ring
	// order, so attempt k+1 is "the next replica".
	MaxAttempts int
	// BaseBackoff / MaxBackoff bound the jittered exponential sleep
	// between attempts (0 = 25ms / 1s). A 503's Retry-After hint
	// overrides the computed sleep when longer.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// FailThreshold ejects a node after this many consecutive health
	// failures (0 = 3).
	FailThreshold int
	// ProbationOKs readmits an ejected node (on probation) after this
	// many consecutive probe successes (0 = 2); HealthyOKs graduates a
	// probation node to healthy after this many more (0 = 3).
	ProbationOKs int
	HealthyOKs   int
	// ProbeInterval / ProbeTimeout drive the active /healthz prober
	// (0 = 250ms / 2s).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// MaxBody bounds inbound request bodies (0 = 64 MiB); larger bodies
	// get 413. Edge lists declaring more than MaxBody/2 vertices are
	// routed by their bytes, never built (see routeKey).
	MaxBody int64
	// Client overrides the outbound HTTP client (tests; default is a
	// keep-alive transport with no global timeout — per-attempt
	// lifetimes come from the inbound request context and probes).
	Client *http.Client
}

func (o *Options) fill() {
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 4
	}
	if o.BaseBackoff <= 0 {
		o.BaseBackoff = 25 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = time.Second
	}
	if o.FailThreshold <= 0 {
		o.FailThreshold = 3
	}
	if o.ProbationOKs <= 0 {
		o.ProbationOKs = 2
	}
	if o.HealthyOKs <= 0 {
		o.HealthyOKs = 3
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = 250 * time.Millisecond
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = 2 * time.Second
	}
	if o.MaxBody <= 0 {
		o.MaxBody = 64 << 20
	}
}

// Gateway fronts the fleet. Build with New, then Start the prober and
// serve Handler.
type Gateway struct {
	opts    Options
	client  *http.Client
	nodes   []*member // index order = input order; nodes[i].name == "ni"
	byName  map[string]*member
	mu      sync.Mutex // guards ring + member health fields
	ring    *Ring
	stats   counters
	started time.Time
	done    chan struct{}
	closeMu sync.Once
}

// New builds a gateway over the node base URLs (scheme://host:port, no
// trailing slash required). All nodes start healthy and on the ring.
func New(nodeURLs []string, opts Options) *Gateway {
	opts.fill()
	g := &Gateway{
		opts:    opts,
		client:  opts.Client,
		byName:  make(map[string]*member, len(nodeURLs)),
		ring:    NewRing(opts.VNodes),
		started: time.Now(),
		done:    make(chan struct{}),
	}
	if g.client == nil {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConnsPerHost = 64
		g.client = &http.Client{Transport: tr}
	}
	for i, u := range nodeURLs {
		m := &member{name: fmt.Sprintf("n%d", i), url: strings.TrimSuffix(u, "/")}
		g.nodes = append(g.nodes, m)
		g.byName[m.name] = m
		g.ring.Add(m.name)
	}
	return g
}

// Start launches the active prober. Close stops it.
func (g *Gateway) Start() { go g.probeLoop() }

// Close stops the prober. In-flight requests finish on their own.
func (g *Gateway) Close() { g.closeMu.Do(func() { close(g.done) }) }

// Handler returns the gateway's HTTP handler.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", g.handleHealthz)
	mux.HandleFunc("GET /metrics", g.ServeMetrics)
	mux.HandleFunc("/cover", g.handleSolve)
	mux.HandleFunc("/hamiltonian", g.handleSolve)
	mux.HandleFunc("/batch", g.handleBatch)
	mux.HandleFunc("POST /graphs", g.handleRegister)
	mux.HandleFunc("GET /graphs/{id}", g.handleGraphByID)
	mux.HandleFunc("DELETE /graphs/{id}", g.handleGraphByID)
	return mux
}

// ---- routing keys ----

// KeyOf returns the ring key of a graph: its canonical-identity hash
// folded to 64 bits when the graph has one (cographs — so every
// isomorphic presentation keys identically, landing on the node whose
// cache already holds the answer), a content key otherwise.
func KeyOf(g *pathcover.Graph) uint64 {
	if hi, lo, ok := g.CanonicalHash(); ok {
		return canon.Hash{Hi: hi, Lo: lo}.Fold64()
	}
	return Hash64String(fmt.Sprintf("raw:%d", g.N()))
}

// keySpec is the lenient routing-only parse of a request body: just
// the graph fields, unknown fields ignored (the node, not the gateway,
// owns request validation).
type keySpec struct {
	Cotree string   `json:"cotree"`
	N      int      `json:"n"`
	Edges  [][2]int `json:"edges"`
}

// routeKey derives the ring key of a request body and reports the
// vertex count its edge list declares. Parsable graphs key by
// canonical identity (relabel-invariant for cographs) or normalized
// edge content. An edge list over maxN vertices is never built, so it
// keys by raw bytes like anything else, and the owning node reports
// the proper 4xx.
func routeKey(body []byte, maxN int) (key uint64, n int) {
	var ks keySpec
	if err := json.Unmarshal(body, &ks); err == nil {
		switch {
		case ks.Cotree != "":
			if g, err := pathcover.ParseCotree(ks.Cotree); err == nil {
				return KeyOf(g), 0
			}
		case ks.N > 0 && ks.N <= maxN:
			if g, err := pathcover.FromEdgesAny(ks.N, ks.Edges, nil); err == nil {
				if hi, lo, ok := g.CanonicalHash(); ok {
					return canon.Hash{Hi: hi, Lo: lo}.Fold64(), ks.N
				}
			}
			return canon.HashEdges(ks.N, ks.Edges).Fold64(), ks.N
		}
	}
	return Hash64(body), max(ks.N, 0)
}

// vertexCap is the most vertices one request may declare, as on the
// nodes: MaxBody/2, and never past MaxVertices.
func (g *Gateway) vertexCap() int { return int(min(g.opts.MaxBody/2, pathcover.MaxVertices)) }

// candidates returns the preference chain for key: ring members
// (healthy + probation) in ring order from the key's owner. With the
// whole fleet ejected the ring is empty; every node is then a
// candidate — attempting a known-bad node beats failing without
// trying, and a recovered-but-not-yet-probed node gets found early.
func (g *Gateway) candidates(key uint64) []*member {
	g.mu.Lock()
	defer g.mu.Unlock()
	names := g.ring.Owners(key, len(g.nodes))
	if len(names) == 0 {
		return append([]*member(nil), g.nodes...)
	}
	out := make([]*member, len(names))
	for i, nm := range names {
		out[i] = g.byName[nm]
	}
	return out
}

// ---- forwarding core ----

// fwdReq is one outbound request, body pre-read so attempts repeat
// from the same bytes.
type fwdReq struct {
	method   string
	path     string
	rawQuery string
	body     []byte
}

// fwdRes is a chain's outcome: either a node's complete answer (status
// + body, fully read) or a terminal error.
type fwdRes struct {
	status   int
	header   http.Header
	body     []byte
	err      error
	node     *member
	rerouted bool // answered by a non-first candidate
}

func (r fwdRes) ok() bool {
	// Any definitive node answer ends the chain: 2xx is success, 4xx
	// (including 499) is the client's error to see. Only transport
	// failures and 5xx keep the chain walking.
	return r.err == nil && r.status < 500
}

// forward performs one attempt against one node.
func (g *Gateway) forward(ctx context.Context, m *member, req fwdReq) fwdRes {
	url := m.url + req.path
	if req.rawQuery != "" {
		url += "?" + req.rawQuery
	}
	var rd io.Reader
	if req.body != nil {
		rd = bytes.NewReader(req.body)
	}
	hr, err := http.NewRequestWithContext(ctx, req.method, url, rd)
	if err != nil {
		return fwdRes{err: err, node: m}
	}
	if req.body != nil {
		hr.Header.Set("Content-Type", "application/json")
	}
	resp, err := g.client.Do(hr)
	if err != nil {
		return fwdRes{err: err, node: m}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return fwdRes{err: err, node: m}
	}
	return fwdRes{status: resp.StatusCode, header: resp.Header, body: body, node: m}
}

// attemptChain walks the candidate chain with jittered exponential
// backoff until a definitive answer: transport errors and 5xx advance
// to the next replica (rerouting), 503 honors the node's Retry-After
// hint, client errors and successes return immediately. Health
// outcomes feed the membership state machine passively: transport
// errors, 502 and 504 are failures; any other answer — 503 and 500
// included, the node is alive, merely loaded or serving a poisoned
// request — is a success.
func (g *Gateway) attemptChain(ctx context.Context, req fwdReq, cands []*member) fwdRes {
	max := g.opts.MaxAttempts
	if max < len(cands) {
		max = len(cands)
	}
	var last fwdRes
	var hint time.Duration
	for i := 0; i < max; i++ {
		if i > 0 {
			d := backoffDelay(i-1, g.opts.BaseBackoff, g.opts.MaxBackoff)
			// Honor Retry-After only once every candidate has had a turn:
			// before that, the next replica is idle and the whole point of
			// the chain is to use it now.
			if i >= len(cands) && hint > d {
				d = hint
			}
			select {
			case <-time.After(d):
			case <-ctx.Done():
				last.err = ctx.Err()
				return last
			}
		}
		m := cands[i%len(cands)]
		if i > 0 {
			g.stats.retries.Add(1)
			m.retried.Add(1)
		}
		res := g.forward(ctx, m, req)
		res.rerouted = i%len(cands) != 0
		switch {
		case res.err != nil:
			if ctx.Err() != nil {
				// The caller went away: not the node's fault.
				res.err = ctx.Err()
				return res
			}
			g.noteFail(m)
		case res.status == http.StatusServiceUnavailable:
			g.noteOK(m)
			hint = parseRetryAfter(res.header)
		case res.status == http.StatusBadGateway || res.status == http.StatusGatewayTimeout:
			g.noteFail(m)
		default:
			g.noteOK(m)
			if res.ok() {
				return res
			}
		}
		last = res
	}
	return last
}

// reply copies a chain outcome to the client. Chains that died without
// any node answer map to 502.
func (g *Gateway) reply(w http.ResponseWriter, res fwdRes) {
	if res.err != nil || res.node == nil {
		msg := "no cluster node answered"
		if res.err != nil {
			msg = res.err.Error()
		}
		writeJSON(w, http.StatusBadGateway, map[string]string{"error": msg})
		return
	}
	if res.status < 300 {
		g.stats.routed.Add(1)
		res.node.routed.Add(1)
	}
	if ct := res.header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := res.header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.WriteHeader(res.status)
	w.Write(res.body)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func (g *Gateway) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	if r.Body == nil {
		return nil, true
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, g.opts.MaxBody))
	if err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, status, map[string]string{"error": err.Error()})
		return nil, false
	}
	if len(body) == 0 {
		return nil, true
	}
	return body, true
}

// ---- handlers ----

// handleSolve proxies /cover and /hamiltonian. Inline graphs route by
// canonical identity; ?id= requests pin to the node the id names
// (node-prefixed ids are the gateway's own registration rewrites; bare
// ids hash onto the ring).
func (g *Gateway) handleSolve(w http.ResponseWriter, r *http.Request) {
	g.stats.requests.Add(1)
	body, ok := g.readBody(w, r)
	if !ok {
		return
	}
	req := fwdReq{method: r.Method, path: r.URL.Path, rawQuery: r.URL.RawQuery, body: body}
	if id := r.URL.Query().Get("id"); id != "" {
		m, nodeID := g.resolveID(id)
		if m == nil {
			writeJSON(w, http.StatusNotFound, map[string]string{"error": fmt.Sprintf("no cluster node for id %q", id)})
			return
		}
		q := r.URL.Query()
		q.Set("id", nodeID)
		req.rawQuery = q.Encode()
		// Pinned: the graph lives on exactly one node's registry, so the
		// chain must not walk replicas (they would 404); retries re-try
		// the same node.
		g.reply(w, g.attemptChain(r.Context(), req, []*member{m}))
		return
	}
	key, _ := routeKey(body, g.vertexCap())
	g.reply(w, g.attemptChain(r.Context(), req, g.candidates(key)))
}

// handleRegister proxies POST /graphs: the graph registers on the node
// that will also serve its covers (same ring key as /cover would use),
// and the node-local id comes back prefixed with the node name
// ("n2.g5") so later ?id= requests pin correctly.
func (g *Gateway) handleRegister(w http.ResponseWriter, r *http.Request) {
	g.stats.requests.Add(1)
	body, ok := g.readBody(w, r)
	if !ok {
		return
	}
	req := fwdReq{method: http.MethodPost, path: "/graphs", rawQuery: r.URL.RawQuery, body: body}
	key, _ := routeKey(body, g.vertexCap())
	res := g.attemptChain(r.Context(), req, g.candidates(key))
	if res.err == nil && res.node != nil && res.status == http.StatusOK {
		var info map[string]any
		if json.Unmarshal(res.body, &info) == nil {
			if id, isStr := info["id"].(string); isStr {
				info["id"] = res.node.name + "." + id
				info["node"] = res.node.name
				if b, err := json.Marshal(info); err == nil {
					res.body = b
				}
			}
		}
	}
	g.reply(w, res)
}

// handleGraphByID proxies GET/DELETE /graphs/{id}, pinned to the id's
// node.
func (g *Gateway) handleGraphByID(w http.ResponseWriter, r *http.Request) {
	g.stats.requests.Add(1)
	id := r.PathValue("id")
	m, nodeID := g.resolveID(id)
	if m == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": fmt.Sprintf("no cluster node for id %q", id)})
		return
	}
	req := fwdReq{method: r.Method, path: "/graphs/" + nodeID, rawQuery: r.URL.RawQuery}
	g.reply(w, g.attemptChain(r.Context(), req, []*member{m}))
}

// resolveID splits a gateway-prefixed id ("n2.g5") into its node and
// the node-local id. Bare ids (clients that registered against a node
// directly) hash onto the ring.
func (g *Gateway) resolveID(id string) (*member, string) {
	if name, rest, found := strings.Cut(id, "."); found {
		if m, ok := g.byName[name]; ok {
			return m, rest
		}
	}
	cands := g.candidates(Hash64String(id))
	if len(cands) == 0 {
		return nil, ""
	}
	return cands[0], id
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	g.mu.Lock()
	alive := g.ring.Len()
	g.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":       true,
		"gateway":  true,
		"nodes":    len(g.nodes),
		"alive":    alive,
		"uptime_s": time.Since(g.started).Seconds(),
	})
}

// ---- batch fan-out ----

// handleBatch splits a /batch by ring owner, dispatches the sub-
// batches concurrently, and reassembles the covers in input order.
// Failure handling is per-item-group, not per-request: a sub-batch
// whose owner dies walks that group's replica chain (rerouted items
// are counted), and only a group that exhausts every replica fails the
// request.
func (g *Gateway) handleBatch(w http.ResponseWriter, r *http.Request) {
	g.stats.requests.Add(1)
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, map[string]string{"error": "POST required"})
		return
	}
	body, ok := g.readBody(w, r)
	if !ok {
		return
	}
	var top map[string]json.RawMessage
	var items []json.RawMessage
	if json.Unmarshal(body, &top) == nil && top["graphs"] != nil {
		_ = json.Unmarshal(top["graphs"], &items)
	}
	if len(items) == 0 {
		// Malformed or empty: any node renders the authoritative 400.
		g.reply(w, g.attemptChain(r.Context(),
			fwdReq{method: http.MethodPost, path: "/batch", rawQuery: r.URL.RawQuery, body: body},
			g.candidates(Hash64(body))))
		return
	}
	g.stats.batchItems.Add(int64(len(items)))

	// Group item indices by ring owner (keys kept per group so each
	// group's replica chain starts at its own owner).
	type group struct {
		key     uint64
		indices []int
	}
	groups := make(map[string]*group)
	order := make([]string, 0, 4)
	total, maxN := 0, g.vertexCap()
	for i, raw := range items {
		key, n := routeKey(raw, maxN)
		// The cap applies to the batch's sum, which the split into
		// per-node sub-batches would hide from the nodes.
		if n > maxN || total+n > maxN {
			err := &pathcover.SizeError{N: max(n, total+n), Max: maxN}
			writeJSON(w, http.StatusRequestEntityTooLarge, map[string]string{"error": err.Error()})
			return
		}
		total += n
		cands := g.candidates(key)
		if len(cands) == 0 {
			writeJSON(w, http.StatusBadGateway, map[string]string{"error": "no cluster nodes"})
			return
		}
		owner := cands[0].name
		gr := groups[owner]
		if gr == nil {
			gr = &group{key: key}
			groups[owner] = gr
			order = append(order, owner)
		}
		gr.indices = append(gr.indices, i)
	}

	start := time.Now()
	covers := make([]json.RawMessage, len(items))
	type groupErr struct {
		res fwdRes
	}
	var (
		wg      sync.WaitGroup
		errMu   sync.Mutex
		failure *groupErr
	)
	for _, owner := range order {
		gr := groups[owner]
		wg.Add(1)
		go func(gr *group) {
			defer wg.Done()
			sub := make(map[string]json.RawMessage, len(top))
			for k, v := range top {
				sub[k] = v
			}
			part := make([]json.RawMessage, len(gr.indices))
			for i, idx := range gr.indices {
				part[i] = items[idx]
			}
			rawPart, err := json.Marshal(part)
			if err != nil {
				errMu.Lock()
				if failure == nil {
					failure = &groupErr{fwdRes{err: err}}
				}
				errMu.Unlock()
				return
			}
			sub["graphs"] = rawPart
			subBody, err := json.Marshal(sub)
			if err != nil {
				errMu.Lock()
				if failure == nil {
					failure = &groupErr{fwdRes{err: err}}
				}
				errMu.Unlock()
				return
			}
			res := g.attemptChain(r.Context(),
				fwdReq{method: http.MethodPost, path: "/batch", rawQuery: r.URL.RawQuery, body: subBody},
				g.candidates(gr.key))
			if res.err != nil || res.status != http.StatusOK {
				errMu.Lock()
				if failure == nil {
					failure = &groupErr{res}
				}
				errMu.Unlock()
				return
			}
			if res.rerouted {
				g.stats.rerouted.Add(int64(len(gr.indices)))
			}
			if res.node != nil {
				res.node.routed.Add(1)
				g.stats.routed.Add(1)
			}
			var parsed struct {
				Covers []json.RawMessage `json:"covers"`
			}
			if err := json.Unmarshal(res.body, &parsed); err != nil || len(parsed.Covers) != len(gr.indices) {
				errMu.Lock()
				if failure == nil {
					failure = &groupErr{fwdRes{err: fmt.Errorf("sub-batch answer mismatch: %d covers for %d items", len(parsed.Covers), len(gr.indices))}}
				}
				errMu.Unlock()
				return
			}
			for i, idx := range gr.indices {
				covers[idx] = parsed.Covers[i]
			}
		}(gr)
	}
	wg.Wait()
	if failure != nil {
		g.reply(w, failure.res)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	var out bytes.Buffer
	out.WriteString(`{"covers":[`)
	for i, c := range covers {
		if i > 0 {
			out.WriteByte(',')
		}
		out.Write(c)
	}
	fmt.Fprintf(&out, "],\"elapsed_ms\":%g}\n", float64(time.Since(start).Nanoseconds())/1e6)
	w.Write(out.Bytes())
}
