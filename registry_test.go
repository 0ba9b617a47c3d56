package pathcover

import (
	"fmt"
	"sync"
	"testing"
)

func TestRegistryRegisterGetDelete(t *testing.T) {
	r := NewRegistry(8)
	g := MustParseCotree("(1 (0 a b) c)")
	id := r.Register(g)
	if id == "" {
		t.Fatal("empty id")
	}
	got, ok := r.Get(id)
	if !ok || got != g {
		t.Fatalf("Get(%q) = %p, %v; want %p", id, got, ok, g)
	}
	if !r.Delete(id) {
		t.Fatal("Delete returned false for a live id")
	}
	if _, ok := r.Get(id); ok {
		t.Fatal("deleted id still resolves")
	}
	if r.Delete(id) {
		t.Fatal("double Delete returned true")
	}
	// Ids are never reused: a later registration gets a fresh one.
	if id2 := r.Register(MustParseCotree("(0 x y)")); id2 == id {
		t.Fatalf("id %q reused after delete", id)
	}
}

// TestRegistryEagerCanonicalization: Register pays the canonical form
// up front, so the pool's cache key needs no further work per query.
func TestRegistryEagerCanonicalization(t *testing.T) {
	r := NewRegistry(4)
	g := Random(9, 128, Mixed)
	r.Register(g)
	if g.canonForm == nil {
		t.Fatal("Register did not canonicalize the graph")
	}
}

func TestRegistryLRUEviction(t *testing.T) {
	r := NewRegistry(3)
	ids := make([]string, 5)
	for i := range ids {
		ids[i] = r.Register(MustParseCotree(fmt.Sprintf("(0 a%d b%d)", i, i)))
		// Keep ids[0] hot so recency, not insertion order, decides.
		if i >= 1 {
			if _, ok := r.Get(ids[0]); !ok && i < 3 {
				t.Fatalf("ids[0] evicted too early at i=%d", i)
			}
		}
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	if _, ok := r.Get(ids[0]); !ok {
		t.Fatal("recently-touched graph was evicted")
	}
	if _, ok := r.Get(ids[1]); ok {
		t.Fatal("least-recently-used graph survived")
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry(16)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var mine []string
			for i := 0; i < 50; i++ {
				id := r.Register(MustParseCotree(fmt.Sprintf("(1 p%d_%d q%d_%d)", w, i, w, i)))
				mine = append(mine, id)
				r.Get(mine[len(mine)/2])
				if i%7 == 0 {
					r.Delete(mine[0])
				}
			}
		}(w)
	}
	wg.Wait()
	if r.Len() > 16 {
		t.Fatalf("Len = %d exceeds capacity", r.Len())
	}
}
