// Package daemon is the pathcoverd HTTP server, extracted from the
// binary so that it can be embedded: cmd/pathcoverd wraps it behind
// flags, cmd/pathcover-gateway's -spawn mode runs it as re-executed
// child processes, and the cluster tests boot real in-process nodes
// without forking anything.
//
// Endpoints (request/response bodies are JSON):
//
//	POST /cover        {"cotree": "(1 (0 a b) c)"}            -> cover
//	                   {"n": 4, "edges": [[0,1],[1,2]]}       -> cover
//	GET/POST /cover?id=g1                                     -> cover of a registered graph
//	POST /hamiltonian  {"cotree": "...", "cycle": true}       -> {"ok": ..., "path": [...]}
//	POST /batch        {"graphs": [spec, spec, ...]}          -> {"covers": [cover, ...]}
//	POST /graphs       {graph spec}                           -> {"id": "g1", ...}
//	GET  /graphs/{id}                                         -> registered-graph info
//	DELETE /graphs/{id}                                       -> {"deleted": true}
//	GET  /healthz                                             -> readiness body (see below)
//	GET  /stats                                               -> pool + cache + registry counters
//
// A graph spec is either a cotree string (the package's text format) or
// an explicit edge list. Edge lists are not restricted to cographs:
// non-cograph inputs degrade to the exact tree backend (forests) or the
// ½-approximation backend, and every cover response reports the route
// taken ("backend"), whether the answer is provably minimum ("exact"),
// and for approximate answers the certified "lower_bound" and "gap".
// Appending ?strict=1 to /cover or /batch restores the old contract:
// non-cograph edge lists are rejected with 400. A request may also pin
// the route with a "backend" field ("auto", "cograph", "tree",
// "approx"); a pinned backend that cannot serve the graph fails with
// 400 instead of rerouting.
//
// Failure statuses carry machine-actionable detail for a fronting
// gateway: saturated admission and shutdown map to 503 with a
// Retry-After header (back off exactly that long, then retry), client
// disconnects cancel queued work via the request context (499), and
// requests cut off by RequestTimeout mid-pipeline get 504. A body over
// MaxBody, or edge lists declaring more than MaxBody/2 vertices (summed
// over a batch), get 413 before any graph is built. /healthz
// answers with a readiness body — shard restarts, in-flight calls,
// queue depth, a ready bit that drops while admission is saturated —
// so an active prober can distinguish a dead node from a busy one.
package daemon

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"pathcover"
)

// Config sizes one daemon. The zero value serves: every field has the
// documented default of the corresponding pathcoverd flag.
type Config struct {
	// Shards is the solver shard count (0 = GOMAXPROCS, one worker
	// per shard; k shards get GOMAXPROCS/k workers each).
	Shards int
	// Queue bounds admitted calls (0 = 8 per shard, negative =
	// unbounded).
	Queue int
	// MaxBody limits request body bytes (0 = 64 MiB); larger bodies get
	// 413. It also caps the vertices one request may declare at
	// MaxBody/2 (see vertexCap), which bounds per-request memory.
	MaxBody int64
	// Verify re-verifies every cover before responding (debugging).
	Verify bool
	// RequestTimeout is the per-request deadline enforced inside the
	// solve pipeline; requests over it get 504. 0 disables.
	RequestTimeout time.Duration
	// CacheMB is the canonical-identity result cache capacity in MiB
	// (0 disables).
	CacheMB int64
	// MaxGraphs caps the registered-graph store (0 = default 1024).
	MaxGraphs int
	// RetryAfter is the hint set on 503 responses (Retry-After header,
	// whole seconds, minimum 1). 0 defaults to one second.
	RetryAfter time.Duration

	// LogSample enables structured JSON request logging at the given
	// head-sampling rate: 1 logs every request, 0.01 every hundredth
	// (the decision is taken at request start from a deterministic
	// sequence counter). 0 disables logging.
	LogSample float64
	// LogOutput receives the request-log lines (default os.Stderr).
	LogOutput io.Writer
	// BatchShare caps the /batch tier's share of the admission queue
	// (weighted QoS admission): at most max(1, share×queue) batch
	// requests are in the daemon at once, so bulk traffic cannot starve
	// interactive requests. 0 defaults to 0.5; a share >= 1 or a
	// negative value disables the gate, as does an unbounded queue.
	BatchShare float64
	// ShedAfter enables cost-based load shedding: when the projected
	// queue cost of admitting a request — (outstanding vertices + the
	// request's) × learned ns/vertex ÷ shards — exceeds this
	// budget, unpinned cover requests over explicit edge lists are
	// downgraded to the approximation backend (a free route switch;
	// cotree-built graphs would first have to materialise O(m) edges)
	// and everything else is rejected 503 with Retry-After. 0 disables
	// shedding.
	ShedAfter time.Duration
}

// Server is one pathcoverd node: a sharded pool, a graph registry and
// the HTTP handler over them.
type Server struct {
	cfg      Config
	pool     *pathcover.Pool
	reg      *pathcover.Registry
	mux      *http.ServeMux
	started  time.Time
	requests atomic.Int64

	met       *serverMetrics
	reqlog    *reqLogger
	batchGate *batchGate
	estimator *costEstimator
}

// New builds a serving node. Call Close to stop the pool's workers.
func New(cfg Config) *Server {
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = 64 << 20
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.BatchShare == 0 {
		cfg.BatchShare = 0.5
	}
	if cfg.LogOutput == nil {
		cfg.LogOutput = os.Stderr
	}
	var popts []pathcover.PoolOption
	if cfg.Shards > 0 {
		popts = append(popts, pathcover.WithShards(cfg.Shards))
	}
	if cfg.Queue != 0 {
		popts = append(popts, pathcover.WithQueueDepth(cfg.Queue))
	}
	if cfg.CacheMB > 0 {
		popts = append(popts, pathcover.WithCache(cfg.CacheMB<<20))
	}
	s := &Server{
		cfg:       cfg,
		pool:      pathcover.NewPool(popts...),
		reg:       pathcover.NewRegistry(cfg.MaxGraphs),
		started:   time.Now(),
		met:       newServerMetrics(),
		reqlog:    newReqLogger(cfg.LogOutput, cfg.LogSample),
		estimator: newCostEstimator(),
	}
	s.batchGate = newBatchGate(cfg.BatchShare, s.pool.QueueDepth())
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("/cover", s.instrument("/cover", tierInteractive, s.handleCover))
	mux.HandleFunc("/hamiltonian", s.instrument("/hamiltonian", tierInteractive, s.handleHamiltonian))
	mux.HandleFunc("/batch", s.instrument("/batch", tierBatch, s.handleBatch))
	mux.HandleFunc("POST /graphs", s.instrument("/graphs", tierInteractive, s.handleRegister))
	mux.HandleFunc("GET /graphs/{id}", s.instrument("/graphs/{id}", tierInteractive, s.handleGraphInfo))
	mux.HandleFunc("DELETE /graphs/{id}", s.instrument("/graphs/{id}", tierInteractive, s.handleGraphDelete))
	s.mux = mux
	return s
}

// Handler returns the node's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Pool exposes the serving pool (boot logging, stats scraping).
func (s *Server) Pool() *pathcover.Pool { return s.pool }

// Close drains and stops the pool. The handler keeps answering
// (everything solve-shaped fails 503) so a lame-duck period is safe.
func (s *Server) Close() {
	s.pool.Close()
}

// graphSpec is the wire form of a graph: exactly one of the cotree text
// format or an explicit edge list on vertices 0..n-1.
type graphSpec struct {
	Cotree string   `json:"cotree,omitempty"`
	N      int      `json:"n,omitempty"`
	Edges  [][2]int `json:"edges,omitempty"`
	Names  []string `json:"names,omitempty"`
}

// graph builds the spec's Graph. strict restores the pre-degradation
// contract: edge lists must recognize as cographs or the request fails
// (mapped to 400 by the handlers). An edge list declaring more than
// maxN vertices fails with a *pathcover.SizeError (413) before
// anything is built.
func (s *graphSpec) graph(strict bool, maxN int) (*pathcover.Graph, error) {
	switch {
	case s.Cotree != "" && (s.N != 0 || len(s.Edges) != 0):
		return nil, errors.New("give either a cotree or an edge list, not both")
	case s.Cotree != "":
		return pathcover.ParseCotree(s.Cotree)
	case s.N > maxN:
		return nil, &pathcover.SizeError{N: s.N, Max: maxN}
	case s.N > 0:
		if strict {
			return pathcover.FromEdges(s.N, s.Edges, s.Names)
		}
		return pathcover.FromEdgesAny(s.N, s.Edges, s.Names)
	default:
		return nil, errors.New("empty graph spec: set \"cotree\" or \"n\"+\"edges\"")
	}
}

// vertexCap is the most vertices one request may declare: MaxBody/2,
// the leaf count of the largest cotree body within the limit ("(0 a a
// …)" spends about two bytes per leaf), and never past MaxVertices.
// Recognition and the degraded backends use O(n + m) memory, so the
// cap bounds what an edge-list request can allocate, however short its
// body.
func (s *Server) vertexCap() int { return int(min(s.cfg.MaxBody/2, pathcover.MaxVertices)) }

// batchVertices rejects a batch whose edge lists declare more than
// maxN vertices together.
func batchVertices(specs []graphSpec, maxN int) error {
	total := 0
	for _, sp := range specs {
		n := max(sp.N, 0)
		if n > maxN || total+n > maxN {
			return &pathcover.SizeError{N: max(n, total+n), Max: maxN}
		}
		total += n
	}
	return nil
}

// strictMode reports whether the request opted into cograph-only
// serving (?strict=1).
func strictMode(r *http.Request) bool {
	v := r.URL.Query().Get("strict")
	return v != "" && v != "0" && v != "false"
}

type coverRequest struct {
	graphSpec
	OmitPaths bool `json:"omit_paths,omitempty"`
	// IncludeNames adds the "names" array (vertex id -> display name) to
	// the response, so a client that submitted the cotree text format —
	// whose parse numbers vertices by leaf order — can remap the paths
	// onto its own numbering by name.
	IncludeNames bool `json:"include_names,omitempty"`
	// Backend pins the solve route ("auto", "cograph", "tree",
	// "approx"); empty means automatic selection.
	Backend string `json:"backend,omitempty"`
}

// coverOpts maps the request's backend field (and strict mode) onto
// solve options.
func coverOpts(backendName string, strict bool) ([]pathcover.Option, error) {
	var opts []pathcover.Option
	if backendName != "" {
		b, err := pathcover.ParseBackend(backendName)
		if err != nil {
			return nil, err
		}
		opts = append(opts, pathcover.WithBackend(b))
	}
	if strict {
		opts = append(opts, pathcover.WithExactOnly())
	}
	return opts, nil
}

type statsJSON struct {
	Procs int   `json:"procs"`
	Time  int64 `json:"time"`
	Work  int64 `json:"work"`
}

type coverResponse struct {
	N        int     `json:"n"`
	NumPaths int     `json:"num_paths"`
	Paths    [][]int `json:"paths,omitempty"`
	// Names maps vertex ids to display names (only when the request set
	// "include_names").
	Names []string `json:"names,omitempty"`
	// Exact is true when NumPaths is provably minimum (cograph and tree
	// backends); Backend names the route. Approximate answers carry the
	// certified lower bound and the gap num_paths - lower_bound.
	Exact      bool      `json:"exact"`
	Backend    string    `json:"backend"`
	LowerBound int       `json:"lower_bound"`
	Gap        int       `json:"gap"`
	Stats      statsJSON `json:"stats"`
	// Degraded is true when the QoS layer downgraded this request to
	// the approximation backend instead of shedding it (the response
	// then also carries exact:false and the certified gap).
	Degraded bool `json:"degraded,omitempty"`
	// ElapsedMS is per-request wall time; batch responses report one
	// batch-level elapsed_ms instead of faking a per-cover number.
	ElapsedMS float64 `json:"elapsed_ms,omitempty"`
}

func coverJSON(g *pathcover.Graph, cov *pathcover.Cover, omitPaths bool, elapsed time.Duration) coverResponse {
	resp := coverResponse{
		N:          g.N(),
		NumPaths:   cov.NumPaths,
		Exact:      cov.Exact,
		Backend:    cov.Backend.String(),
		LowerBound: cov.LowerBound,
		Gap:        cov.Gap,
		Stats: statsJSON{
			Procs: cov.Stats.Procs,
			Time:  cov.Stats.Time,
			Work:  cov.Stats.Work,
		},
	}
	if elapsed > 0 {
		resp.ElapsedMS = float64(elapsed.Nanoseconds()) / 1e6
	}
	if !omitPaths {
		resp.Paths = cov.Paths
		if resp.Paths == nil {
			resp.Paths = [][]int{}
		}
	}
	return resp
}

// vertexNames materialises the id -> name table of a graph.
func vertexNames(g *pathcover.Graph) []string {
	names := make([]string, g.N())
	for i := range names {
		names[i] = g.Name(i)
	}
	return names
}

type hamiltonianRequest struct {
	graphSpec
	Cycle bool `json:"cycle,omitempty"`
}

type batchRequest struct {
	Graphs    []graphSpec `json:"graphs"`
	OmitPaths bool        `json:"omit_paths,omitempty"`
	// IncludeNames adds the per-cover "names" arrays, as for /cover.
	IncludeNames bool `json:"include_names,omitempty"`
	// Backend pins the solve route for every graph of the batch.
	Backend string `json:"backend,omitempty"`
}

// decode reads one JSON request body within the size limit.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, dst any) error {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBody)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	return dec.Decode(dst)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	if err := enc.Encode(v); err != nil {
		log.Printf("pathcoverd: encode: %v", err)
	}
}

type errorResponse struct {
	Error string `json:"error"`
}

// fail maps pool, routing and parse errors onto HTTP statuses. 503s
// (saturation, shutdown) carry a Retry-After hint so a retrying client
// or gateway backs off the amount the node asks for instead of
// guessing.
func (s *Server) fail(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, pathcover.ErrPoolSaturated),
		errors.Is(err, pathcover.ErrPoolClosed):
		if errors.Is(err, pathcover.ErrPoolSaturated) {
			s.met.shed.With("saturation").Inc()
		}
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
	case errors.Is(err, pathcover.ErrNotExact),
		errors.Is(err, pathcover.ErrNotCograph),
		errors.Is(err, pathcover.ErrNotForest):
		// The request's routing constraints (strict mode or a pinned
		// backend) cannot serve this graph.
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
	case errors.Is(err, context.DeadlineExceeded):
		// The RequestTimeout deadline cut the solve off mid-pipeline.
		writeJSON(w, http.StatusGatewayTimeout, errorResponse{Error: err.Error()})
	case errors.Is(err, context.Canceled):
		// Client went away; 499 in the nginx tradition.
		writeJSON(w, 499, errorResponse{Error: err.Error()})
	default:
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
	}
}

// retryAfterSeconds renders the configured 503 hint in whole seconds,
// at least 1 (Retry-After: 0 reads as "retry immediately", which is
// exactly the stampede the header exists to prevent).
func (s *Server) retryAfterSeconds() int {
	sec := int(s.cfg.RetryAfter.Round(time.Second) / time.Second)
	if sec < 1 {
		sec = 1
	}
	return sec
}

// requestCtx derives the solve context: the client's context bounded by
// the RequestTimeout deadline.
func (s *Server) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.cfg.RequestTimeout > 0 {
		return context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	}
	return r.Context(), func() {}
}

// badRequest rejects a request as sent: 413 for a body over MaxBody or
// a graph over the vertex cap, 400 for anything else.
func badRequest(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	var body *http.MaxBytesError
	var size *pathcover.SizeError
	if errors.As(err, &body) || errors.As(err, &size) {
		status = http.StatusRequestEntityTooLarge
	}
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

// shed rejects one request the QoS layer refused to admit: 503 with the
// same Retry-After contract as saturated admission, plus the shed
// counter under reason.
func (s *Server) shed(w http.ResponseWriter, reason string) {
	s.met.shed.With(reason).Inc()
	w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
	writeJSON(w, http.StatusServiceUnavailable,
		errorResponse{Error: "request shed: " + reason + " budget exceeded; retry after backoff"})
}

func requirePost(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST required"})
		return false
	}
	return true
}

// handleHealthz answers the liveness probe with a readiness body: the
// signals a fronting gateway's prober and backoff logic act on. Ready
// drops to false while the admission queue is full (the node is alive
// but will 503 solve traffic) and after Close; restarts counts shard
// Solvers rebuilt after panics, so a node that is alive-but-crashing
// is visible as such.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.pool.Stats()
	ready := st.QueueDepth <= 0 || st.InFlight < int64(st.QueueDepth)
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":          true,
		"ready":       ready,
		"shards":      s.pool.NumShards(),
		"in_flight":   st.InFlight,
		"queue_depth": st.QueueDepth,
		"restarts":    st.Restarts,
		"uptime_s":    time.Since(s.started).Seconds(),
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"pool":       s.pool.Stats(),
		"registry":   s.reg.Stats(),
		"requests":   s.requests.Load(),
		"uptime_s":   time.Since(s.started).Seconds(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"num_cpu":    runtime.NumCPU(),
	})
}

// boolParam reads a query-string boolean ("1"/"true"), so GET
// /cover?id= requests can ask for omit_paths / include_names without a
// body.
func boolParam(r *http.Request, name string) bool {
	v := r.URL.Query().Get(name)
	return v != "" && v != "0" && v != "false"
}

// handleCover serves POST /cover with an inline graph spec, and
// GET/POST /cover?id=... against a registered graph.
func (s *Server) handleCover(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	if r.Method != http.MethodGet || id == "" {
		if !requirePost(w, r) {
			return
		}
	}
	s.requests.Add(1)
	var req coverRequest
	if r.Method == http.MethodPost {
		if err := s.decode(w, r, &req); err != nil {
			badRequest(w, err)
			return
		}
	}
	req.OmitPaths = req.OmitPaths || boolParam(r, "omit_paths")
	req.IncludeNames = req.IncludeNames || boolParam(r, "include_names")
	strict := strictMode(r)
	var g *pathcover.Graph
	if id != "" {
		if req.Cotree != "" || req.N != 0 || len(req.Edges) != 0 {
			badRequest(w, errors.New("give either ?id= or a graph spec, not both"))
			return
		}
		var ok bool
		if g, ok = s.reg.Get(id); !ok {
			writeJSON(w, http.StatusNotFound, errorResponse{Error: fmt.Sprintf("no registered graph %q", id)})
			return
		}
	} else {
		var err error
		if g, err = req.graph(strict, s.vertexCap()); err != nil {
			badRequest(w, err)
			return
		}
	}
	opts, err := coverOpts(req.Backend, strict)
	if err != nil {
		badRequest(w, err)
		return
	}
	ri := info(r)
	ri.n = g.N()
	// QoS: project the request's queue cost before admitting it. A
	// request free to choose its route degrades to the approximation
	// backend — but only when the graph already carries an explicit edge
	// list, so the "cheap tier" never starts by materialising O(m) edges
	// from a cotree (for an implicit dense cograph that conversion costs
	// more than the exact solve being shed). Pinned, strict, or
	// cotree-built requests over budget can only be rejected.
	switch s.shedCheck(g.N(), req.Backend == "" && !strict && g.HasEdgeList()) {
	case shedReject:
		s.shed(w, "cost")
		return
	case shedDegrade:
		opts = append(opts, pathcover.WithBackend(pathcover.BackendApprox))
		ri.degraded = true
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	start := time.Now()
	cov, err := s.pool.MinimumPathCover(ctx, g, opts...)
	if err != nil {
		if ri.degraded {
			// The cheap tier could not serve it either (e.g. the graph is
			// too large to materialize for the approximation): shed.
			ri.degraded = false
			s.shed(w, "cost")
			return
		}
		s.fail(w, err)
		return
	}
	elapsed := time.Since(start)
	ri.backend = cov.Backend.String()
	ri.shard = cov.Shard
	ri.cache = s.cacheOutcome(cov)
	if cov.Shard >= 0 && !ri.degraded {
		// Solved on a shard by the exact pipeline: fold it into the
		// ns/vertex estimate (cache hits and approx solves would drag the
		// estimate away from the cost being projected).
		s.estimator.observe(g.N(), elapsed.Nanoseconds())
	}
	if s.cfg.Verify {
		if err := g.Verify(cov.Paths); err != nil {
			s.fail(w, fmt.Errorf("cover failed verification: %w", err))
			return
		}
	}
	resp := coverJSON(g, cov, req.OmitPaths, elapsed)
	resp.Degraded = ri.degraded
	if req.IncludeNames {
		resp.Names = vertexNames(g)
	}
	writeJSON(w, http.StatusOK, resp)
}

// cacheOutcome classifies how a pool cover was served for the request
// log: "hit" never occupied a shard, "miss" was solved and (when
// eligible) filled the cache, "off" means the daemon runs uncached.
func (s *Server) cacheOutcome(cov *pathcover.Cover) string {
	switch {
	case cov.Shard < 0:
		return "hit"
	case s.cfg.CacheMB > 0:
		return "miss"
	default:
		return "off"
	}
}

// handleRegister (POST /graphs) parses, validates and canonicalizes a
// graph spec once and stores it under a fresh id for repeated
// GET/POST /cover?id= querying.
func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	var spec graphSpec
	if err := s.decode(w, r, &spec); err != nil {
		badRequest(w, err)
		return
	}
	g, err := spec.graph(strictMode(r), s.vertexCap())
	if err != nil {
		badRequest(w, err)
		return
	}
	info(r).n = g.N()
	id := s.reg.Register(g)
	writeJSON(w, http.StatusOK, graphInfoJSON(id, g))
}

func graphInfoJSON(id string, g *pathcover.Graph) map[string]any {
	info := map[string]any{
		"id":      id,
		"n":       g.N(),
		"cograph": g.IsCograph(),
	}
	if hi, lo, ok := g.CanonicalHash(); ok {
		info["canonical_hash"] = fmt.Sprintf("%016x%016x", hi, lo)
	}
	return info
}

func (s *Server) handleGraphInfo(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	id := r.PathValue("id")
	g, ok := s.reg.Get(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: fmt.Sprintf("no registered graph %q", id)})
		return
	}
	writeJSON(w, http.StatusOK, graphInfoJSON(id, g))
}

func (s *Server) handleGraphDelete(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	id := r.PathValue("id")
	if !s.reg.Delete(id) {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: fmt.Sprintf("no registered graph %q", id)})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"deleted": true, "id": id})
}

func (s *Server) handleHamiltonian(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r) {
		return
	}
	s.requests.Add(1)
	var req hamiltonianRequest
	if err := s.decode(w, r, &req); err != nil {
		badRequest(w, err)
		return
	}
	// Hamiltonicity is cograph-only (no degraded backend exists), so the
	// edge-list form must recognize regardless of strict mode.
	g, err := req.graph(true, s.vertexCap())
	if err != nil {
		badRequest(w, err)
		return
	}
	ri := info(r)
	ri.n = g.N()
	ri.backend = pathcover.BackendCograph.String()
	// Hamiltonicity has no approximate tier, so over-budget requests can
	// only be rejected.
	if s.shedCheck(g.N(), false) == shedReject {
		s.shed(w, "cost")
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	start := time.Now()
	var (
		path []int
		ok   bool
	)
	if req.Cycle {
		path, ok, err = s.pool.HamiltonianCycle(ctx, g)
	} else {
		path, ok, err = s.pool.HamiltonianPath(ctx, g)
	}
	if err != nil {
		s.fail(w, err)
		return
	}
	s.estimator.observe(g.N(), time.Since(start).Nanoseconds())
	if path == nil {
		path = []int{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":         ok,
		"cycle":      req.Cycle,
		"path":       path,
		"n":          g.N(),
		"elapsed_ms": float64(time.Since(start).Nanoseconds()) / 1e6,
	})
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r) {
		return
	}
	s.requests.Add(1)
	var req batchRequest
	if err := s.decode(w, r, &req); err != nil {
		badRequest(w, err)
		return
	}
	if len(req.Graphs) == 0 {
		badRequest(w, errors.New("empty batch"))
		return
	}
	if err := batchVertices(req.Graphs, s.vertexCap()); err != nil {
		badRequest(w, err)
		return
	}
	strict := strictMode(r)
	gs := make([]*pathcover.Graph, len(req.Graphs))
	total := 0
	for i := range req.Graphs {
		g, err := req.Graphs[i].graph(strict, s.vertexCap())
		if err != nil {
			badRequest(w, fmt.Errorf("graph %d: %w", i, err))
			return
		}
		gs[i] = g
		total += g.N()
	}
	opts, err := coverOpts(req.Backend, strict)
	if err != nil {
		badRequest(w, err)
		return
	}
	ri := info(r)
	ri.n = total
	// QoS: batch traffic holds at most its weighted share of the
	// admission queue, so bulk load cannot starve interactive requests;
	// over the share it is shed with the standard Retry-After contract.
	gateRelease, ok := s.batchGate.admit()
	if !ok {
		s.shed(w, "batch_share")
		return
	}
	defer gateRelease()
	// Batches never degrade (a mixed exact/approx batch would be
	// unusable): over the cost budget they shed whole.
	if s.shedCheck(total, false) == shedReject {
		s.shed(w, "cost")
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	start := time.Now()
	covs, err := s.pool.CoverBatch(ctx, gs, opts...)
	if err != nil {
		s.fail(w, err)
		return
	}
	elapsed := time.Since(start)
	out := make([]coverResponse, len(covs))
	for i, cov := range covs {
		if s.cfg.Verify {
			if err := gs[i].Verify(cov.Paths); err != nil {
				s.fail(w, fmt.Errorf("cover %d failed verification: %w", i, err))
				return
			}
		}
		out[i] = coverJSON(gs[i], cov, req.OmitPaths, 0)
		if req.IncludeNames {
			out[i].Names = vertexNames(gs[i])
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"covers":     out,
		"elapsed_ms": float64(elapsed.Nanoseconds()) / 1e6,
	})
}
