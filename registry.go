package pathcover

import (
	"container/list"
	"fmt"
	"sync"
)

// Registry is the session layer of the serving stack: a bounded store
// of parsed, validated graphs under short string ids, so a client
// registers a graph once (paying parse → validate → recognize →
// canonicalize a single time) and then queries it by id as often as it
// likes. cmd/pathcoverd exposes it as POST /graphs → id, GET/POST
// /cover?id=..., DELETE /graphs/{id}.
//
// The store is LRU-bounded: registering past the capacity evicts the
// least recently used graph (every Get refreshes recency). Evicted or
// deleted ids simply miss — clients re-register, exactly as with any
// session store. All methods are safe for concurrent use.
type Registry struct {
	mu      sync.Mutex
	max     int
	seq     uint64
	entries map[string]*list.Element
	lru     *list.List // front = most recently used; values are *regItem
}

type regItem struct {
	id string
	g  *Graph
}

// DefaultMaxGraphs is the registry capacity when NewRegistry is given
// a non-positive bound.
const DefaultMaxGraphs = 1024

// NewRegistry returns a registry holding at most maxGraphs graphs
// (DefaultMaxGraphs when maxGraphs <= 0).
func NewRegistry(maxGraphs int) *Registry {
	if maxGraphs <= 0 {
		maxGraphs = DefaultMaxGraphs
	}
	return &Registry{
		max:     maxGraphs,
		entries: make(map[string]*list.Element),
		lru:     list.New(),
	}
}

// Register stores g and returns its id ("g1", "g2", ...). Ids are
// never reused, so a stale id after eviction can only miss — it cannot
// silently resolve to someone else's graph. Cographs are canonicalized
// eagerly, so the registration pays the whole per-graph cost up front
// and queries by id start cache-keyed.
func (r *Registry) Register(g *Graph) string {
	g.canonical() // nil for raw graphs; memoized for cographs
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	id := fmt.Sprintf("g%d", r.seq)
	r.entries[id] = r.lru.PushFront(&regItem{id: id, g: g})
	for r.lru.Len() > r.max {
		tail := r.lru.Back()
		delete(r.entries, tail.Value.(*regItem).id)
		r.lru.Remove(tail)
	}
	return id
}

// Get returns the graph registered under id, refreshing its recency.
func (r *Registry) Get(id string) (*Graph, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	el, ok := r.entries[id]
	if !ok {
		return nil, false
	}
	r.lru.MoveToFront(el)
	return el.Value.(*regItem).g, true
}

// Delete removes id, reporting whether it was present.
func (r *Registry) Delete(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	el, ok := r.entries[id]
	if !ok {
		return false
	}
	delete(r.entries, id)
	r.lru.Remove(el)
	return true
}

// Len returns the number of registered graphs.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lru.Len()
}
