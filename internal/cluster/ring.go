package cluster

import (
	"fmt"
	"sort"
)

// Ring is a consistent-hash ring with virtual nodes: each member owns
// vnodes points on the 64-bit circle, a key is served by the first
// point at or clockwise of it. Membership churn (ejection, readmission)
// moves only the keys adjacent to the changed member's points — the
// property that keeps the rest of the fleet's caches warm through a
// node failure. Not safe for concurrent use; the Gateway serialises
// access under its membership lock.
type Ring struct {
	vnodes int
	points []ringPoint // sorted by point
	names  map[string]bool
}

type ringPoint struct {
	point uint64
	name  string
}

// NewRing builds an empty ring with the given virtual-node count per
// member (0 defaults to 128: enough that a 3-node fleet's ownership
// splits within a few percent of even).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = 128
	}
	return &Ring{vnodes: vnodes, names: make(map[string]bool)}
}

// Add places a member's virtual nodes on the ring. Adding a present
// member is a no-op.
func (r *Ring) Add(name string) {
	if r.names[name] {
		return
	}
	r.names[name] = true
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, ringPoint{
			point: Hash64String(fmt.Sprintf("%s#%d", name, i)),
			name:  name,
		})
	}
	sort.Slice(r.points, func(a, b int) bool { return r.points[a].point < r.points[b].point })
}

// Remove takes a member's virtual nodes off the ring. Removing an
// absent member is a no-op.
func (r *Ring) Remove(name string) {
	if !r.names[name] {
		return
	}
	delete(r.names, name)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.name != name {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Has reports whether the member is on the ring.
func (r *Ring) Has(name string) bool { return r.names[name] }

// Len returns the member count.
func (r *Ring) Len() int { return len(r.names) }

// Owner returns the member owning key ("" on an empty ring).
func (r *Ring) Owner(key uint64) string {
	owners := r.Owners(key, 1)
	if len(owners) == 0 {
		return ""
	}
	return owners[0]
}

// Owners returns up to k distinct members in ring order starting at
// key's owner: the preference chain a request for key walks when nodes
// fail (the second entry is "the next ring replica" in reroute terms).
func (r *Ring) Owners(key uint64, k int) []string {
	if len(r.points) == 0 || k <= 0 {
		return nil
	}
	if k > len(r.names) {
		k = len(r.names)
	}
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].point >= key })
	out := make([]string, 0, k)
	seen := make(map[string]bool, k)
	for i := 0; i < len(r.points) && len(out) < k; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.name] {
			seen[p.name] = true
			out = append(out, p.name)
		}
	}
	return out
}
