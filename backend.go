package pathcover

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"pathcover/internal/backend"
	"pathcover/internal/cograph"
	"pathcover/internal/cotree"
	"pathcover/internal/lowerbound"
)

// Backend identifies a solve route. The default (BackendAuto) picks the
// strongest applicable route per request: the paper's exact cotree-PRAM
// pipeline for cographs, the exact tree DP for forests, and the
// deterministic ½-approximation for everything else.
type Backend int

const (
	// BackendAuto routes automatically: cograph -> tree -> approx.
	BackendAuto Backend = iota
	// BackendCograph is the paper's exact parallel pipeline (cographs
	// only).
	BackendCograph
	// BackendTree is the exact forest DP (forests only).
	BackendTree
	// BackendApprox is the deterministic ½-approximation greedy for
	// arbitrary graphs; its answers are flagged Exact=false and carry a
	// lower-bound gap.
	BackendApprox
)

// String renders the backend name used on the wire ("cograph",
// "tree", "approx"; "auto" for the unpinned zero value).
func (b Backend) String() string {
	switch b {
	case BackendAuto:
		return "auto"
	case BackendCograph:
		return "cograph"
	case BackendTree:
		return "tree"
	case BackendApprox:
		return "approx"
	}
	return fmt.Sprintf("Backend(%d)", int(b))
}

// ParseBackend maps the wire names ("auto", "cograph", "tree",
// "approx") onto Backend values.
func ParseBackend(s string) (Backend, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "auto":
		return BackendAuto, nil
	case "cograph":
		return BackendCograph, nil
	case "tree":
		return BackendTree, nil
	case "approx":
		return BackendApprox, nil
	}
	return 0, fmt.Errorf("pathcover: unknown backend %q (want auto, cograph, tree or approx)", s)
}

// Routing errors.
var (
	// ErrNotExact is returned under WithExactOnly when only the
	// approximation backend could serve the request.
	ErrNotExact = errors.New("pathcover: no exact backend applies to this graph")
	// ErrNotCograph is returned when a request pins BackendCograph but
	// the graph is not a cograph.
	ErrNotCograph = errors.New("pathcover: graph is not a cograph")
	// ErrNotForest is returned when a request pins BackendTree but the
	// graph has a cycle.
	ErrNotForest = errors.New("pathcover: graph is not a forest")
)

// WithBackend pins the solve route instead of automatic selection. A
// pinned backend that cannot serve the graph fails (ErrNotCograph /
// ErrNotForest) rather than silently rerouting. Pinning BackendTree or
// BackendApprox on a cotree-built Graph materialises its edge set
// first, which costs O(m) time and memory.
func WithBackend(b Backend) Option { return func(c *config) { c.backend = b } }

// WithExactOnly makes the solve fail with ErrNotExact instead of
// falling back to the approximation backend; the exact cograph and tree
// routes still apply. This is the library form of the daemon's strict
// mode.
func WithExactOnly() Option { return func(c *config) { c.exactOnly = true } }

// FaultInjector is a test-only hook called between pipeline steps with
// the step name ("step1".."step8" for the cograph pipeline,
// "step1".."step3" for the tree and approx backends). It may sleep (a
// slow step) or panic (a poisoned solve); panics are recovered by Pool,
// which rebuilds the affected shard.
type FaultInjector func(step string)

// WithFaultInjector installs a fault injector for this call (or this
// Solver / every shard of a Pool when passed at construction). It is a
// testing facility: injecting faults in production serving defeats the
// point of the serving layer. Passing a non-nil injector (or explicitly
// passing nil) also overrides the PATHCOVER_FAULT environment variable
// for the call, so tests can disable ambient faults per request.
func WithFaultInjector(f FaultInjector) Option {
	return func(c *config) {
		c.fault = f
		c.faultSet = true
	}
}

// withContext threads the caller's context into the solve loop; Pool
// methods install their request context so deadlines and cancellation
// are checked between pipeline steps, not just at admission.
func withContext(ctx context.Context) Option {
	return func(c *config) { c.ctx = ctx }
}

// checkFn builds the between-step hook from the call configuration:
// context first (an expired deadline aborts before any injected fault
// can stall the step), then the fault injector (explicit, or from
// PATHCOVER_FAULT when no explicit choice was made). Returns nil when
// neither applies, keeping the default path hook-free.
func (c *config) checkFn() func(step string) error {
	inj := c.fault
	if !c.faultSet {
		inj = envFaultInjector()
	}
	ctx := c.ctx
	if inj == nil && ctx == nil {
		return nil
	}
	return func(step string) error {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if inj != nil {
			inj(step)
		}
		return nil
	}
}

// faultSpec is one parsed PATHCOVER_FAULT entry.
type faultSpec struct {
	panics bool
	sleep  time.Duration
}

// envFaultCache memoises the parse of the current PATHCOVER_FAULT
// value (tests flip the variable between cases, so the value is
// re-read on every solve but parsed once per distinct spec).
var envFaultCache struct {
	sync.Mutex
	spec string
	inj  FaultInjector
}

// envFaultInjector returns the injector described by the test-only
// PATHCOVER_FAULT environment variable, nil when unset. The format is a
// comma-separated list of fault:step entries:
//
//	PATHCOVER_FAULT=panic:step6            panic entering step 6
//	PATHCOVER_FAULT=slow:step3             sleep 150ms entering step 3
//	PATHCOVER_FAULT=slow:step2:50ms        custom stall duration
//	PATHCOVER_FAULT=panic:step5,slow:step2 multiple faults
//
// Malformed specs panic: the variable exists only to break things
// deliberately in tests and CI, so a typo must be loud, not ignored.
func envFaultInjector() FaultInjector {
	spec := os.Getenv("PATHCOVER_FAULT")
	if spec == "" {
		return nil
	}
	envFaultCache.Lock()
	defer envFaultCache.Unlock()
	if envFaultCache.spec == spec {
		return envFaultCache.inj
	}
	inj := parseFaultSpec(spec)
	envFaultCache.spec, envFaultCache.inj = spec, inj
	return inj
}

// parseFaultSpec compiles a PATHCOVER_FAULT value into an injector.
func parseFaultSpec(spec string) FaultInjector {
	faults := make(map[string]faultSpec)
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		parts := strings.Split(entry, ":")
		if len(parts) < 2 {
			panic(fmt.Sprintf("pathcover: malformed PATHCOVER_FAULT entry %q (want kind:stepN)", entry))
		}
		kind, step := parts[0], parts[1]
		f := faults[step]
		switch kind {
		case "panic":
			f.panics = true
		case "slow":
			f.sleep = 150 * time.Millisecond
			if len(parts) >= 3 {
				d, err := time.ParseDuration(parts[2])
				if err != nil {
					panic(fmt.Sprintf("pathcover: bad PATHCOVER_FAULT duration in %q: %v", entry, err))
				}
				f.sleep = d
			}
		default:
			panic(fmt.Sprintf("pathcover: unknown PATHCOVER_FAULT kind %q (want panic or slow)", kind))
		}
		faults[step] = f
	}
	return func(step string) {
		f, ok := faults[step]
		if !ok {
			return
		}
		if f.sleep > 0 {
			time.Sleep(f.sleep)
		}
		if f.panics {
			panic(fmt.Sprintf("pathcover: injected fault at %s", step))
		}
	}
}

// FromEdgesAny builds a graph from an explicit edge list on vertices
// 0..n-1, accepting any simple graph: cographs get their cotree
// recognized (identical to FromEdges), everything else is kept as raw
// adjacency and served by the degraded backends — exactly for forests,
// approximately (with a reported lower-bound gap) otherwise. Unlike
// FromEdges, vertices of a non-cograph result keep their input
// numbering. The adjacency lists are built once, in O(n + m), and
// shared by recognition and the degraded backends; no step allocates
// more than O(n + m).
func FromEdgesAny(n int, edges [][2]int, names []string) (*Graph, error) {
	adj, err := adjacency(n, edges)
	if err != nil {
		return nil, err
	}
	if t, err := cograph.RecognizeAdjacency(adj, names); err == nil {
		return &Graph{t: t}, nil
	}
	return &Graph{raw: backend.FromAdjacency(adj), names: names}, nil
}

// IsCograph reports whether the graph is a cograph (and therefore
// serves through the paper's exact pipeline).
func (g *Graph) IsCograph() bool { return g.t != nil }

// HasEdgeList reports whether the graph carries an explicit edge-list
// representation (it was built by FromEdges or FromEdgesAny rather than
// from a cotree). Explicit graphs can switch to the edge-walking
// backends (BackendTree, BackendApprox) at zero conversion cost;
// cotree-built graphs must first materialise O(m) edges — which is why
// load-shedding layers degrade only explicit graphs (see
// internal/daemon) and rawGraph caps the materialisation it will do.
func (g *Graph) HasEdgeList() bool { return g.raw != nil }

// IsForest reports whether the graph is acyclic. Non-cograph forests
// route to the exact tree backend; cograph forests (unions of stars)
// still route through the cograph pipeline.
func (g *Graph) IsForest() bool {
	if g.t == nil {
		return g.raw.IsForest()
	}
	return cotreeIsForest(g.t)
}

// cotreeIsForest decides acyclicity on the cotree: a cograph is a
// forest iff every 1-node joins exactly two parts, one a single vertex
// and the other edgeless (three mutually-joined parts or two parts of
// two or more vertices each create a triangle or C4, and an edge inside
// a joined part creates a triangle with the other side).
func cotreeIsForest(t *cotree.Tree) bool {
	var walk func(u int) (edgeless bool, forest bool)
	walk = func(u int) (bool, bool) {
		if t.Label[u] == cotree.LabelLeaf {
			return true, true
		}
		if t.Label[u] == cotree.Label0 {
			edgeless, forest := true, true
			for _, c := range t.Children[u] {
				e, f := walk(c)
				edgeless = edgeless && e
				forest = forest && f
			}
			return edgeless, forest
		}
		// 1-node: a join is a forest only as center + edgeless leaves.
		if len(t.Children[u]) != 2 {
			return false, false
		}
		a, b := t.Children[u][0], t.Children[u][1]
		aLeaf := t.Label[a] == cotree.LabelLeaf
		bLeaf := t.Label[b] == cotree.LabelLeaf
		switch {
		case aLeaf && bLeaf:
			return false, true // a single edge
		case aLeaf:
			e, _ := walk(b)
			return false, e
		case bLeaf:
			e, _ := walk(a)
			return false, e
		default:
			return false, false
		}
	}
	_, forest := walk(t.Root)
	return forest
}

// maxMaterializeEdges caps the edge-set materialization a pinned
// BackendTree/BackendApprox request may trigger on a cotree-built
// graph; denser graphs (which only the cograph pipeline can hold
// implicitly) fail fast instead of allocating O(m) memory.
const maxMaterializeEdges = 1 << 26

// rawGraph returns the adjacency-list form of the graph, materialising
// it from the cotree when the graph was built as one. Materialisation
// is O(m) and intended for explicit backend overrides, not the serving
// hot path.
func (g *Graph) rawGraph() (*backend.Graph, error) {
	if g.raw != nil {
		return g.raw, nil
	}
	if m := g.NumEdges(); m > maxMaterializeEdges {
		return nil, fmt.Errorf("pathcover: refusing to materialise %d edges for a backend override (max %d)",
			m, maxMaterializeEdges)
	}
	return backend.New(g.N(), cotreeEdges(g.t)), nil
}

// cotreeEdges materialises a cotree's edge set: at every 1-node, all
// pairs across its children's leaf sets. O(n + m).
func cotreeEdges(t *cotree.Tree) [][2]int {
	var edges [][2]int
	var walk func(u int) []int
	walk = func(u int) []int {
		if t.Label[u] == cotree.LabelLeaf {
			return []int{t.VertexOf[u]}
		}
		var all []int
		for _, c := range t.Children[u] {
			leaves := walk(c)
			if t.Label[u] == cotree.Label1 {
				for _, a := range all {
					for _, b := range leaves {
						edges = append(edges, [2]int{a, b})
					}
				}
			}
			all = append(all, leaves...)
		}
		return all
	}
	walk(t.Root)
	return edges
}

// resolveBackend picks the route for one call: the pinned backend when
// the request set one (failing if it cannot serve the graph), the
// strongest applicable route otherwise. The returned *backend.Graph is
// non-nil exactly for the tree and approx routes.
func (g *Graph) resolveBackend(cfg config) (Backend, *backend.Graph, error) {
	switch cfg.backend {
	case BackendAuto:
		if g.t != nil {
			return BackendCograph, nil, nil
		}
		if g.raw.IsForest() {
			return BackendTree, g.raw, nil
		}
		if cfg.exactOnly {
			return 0, nil, ErrNotExact
		}
		return BackendApprox, g.raw, nil
	case BackendCograph:
		if g.t == nil {
			return 0, nil, ErrNotCograph
		}
		return BackendCograph, nil, nil
	case BackendTree:
		rg, err := g.rawGraph()
		if err != nil {
			return 0, nil, err
		}
		if !rg.IsForest() {
			return 0, nil, ErrNotForest
		}
		return BackendTree, rg, nil
	case BackendApprox:
		if cfg.exactOnly {
			return 0, nil, ErrNotExact
		}
		rg, err := g.rawGraph()
		if err != nil {
			return 0, nil, err
		}
		return BackendApprox, rg, nil
	}
	return 0, nil, fmt.Errorf("pathcover: unknown backend %v", cfg.backend)
}

// degradedCover serves the tree and approx routes (no PRAM simulation;
// zero simulated cost).
func degradedCover(rg *backend.Graph, route Backend, check func(string) error) (*Cover, error) {
	switch route {
	case BackendTree:
		res, err := backend.TreeCover(rg, check)
		if err != nil {
			return nil, err
		}
		return &Cover{
			Paths: res.Paths, NumPaths: res.NumPaths,
			Exact: true, Backend: BackendTree,
			LowerBound: res.NumPaths,
		}, nil
	case BackendApprox:
		res, err := backend.ApproxCover(rg, check)
		if err != nil {
			return nil, err
		}
		lb := lowerbound.PathCoverSize(rg.N, rg.Edges)
		return &Cover{
			Paths: res.Paths, NumPaths: res.NumPaths,
			Exact: false, Backend: BackendApprox,
			LowerBound: lb, Gap: res.NumPaths - lb,
		}, nil
	}
	return nil, fmt.Errorf("pathcover: degradedCover called with %v", route)
}
