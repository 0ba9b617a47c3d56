package pathcover

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pathcover/internal/pram"
	"pathcover/internal/workload"
)

// TestPoolCoverParallelMixed drives a 4-shard pool from 16 goroutines
// with mixed-size graphs (shared across callers); every cover is
// verified and compared against the sequential optimum, and the shard
// accounting must add up.
func TestPoolCoverParallelMixed(t *testing.T) {
	p := NewPool(WithShards(4))
	defer p.Close()
	reqs := workload.Requests(11, 96, 5, 10, 12)
	cat := workload.Catalog(reqs)
	graphs := make(map[workload.Request]*Graph, len(cat))
	want := make(map[workload.Request]int, len(cat))
	for _, r := range cat {
		g := Random(r.Seed, r.N, r.Shape)
		graphs[r] = g
		want[r] = g.MinPathCoverSize()
	}
	var wg sync.WaitGroup
	var next atomic.Int64
	var calls, vertices atomic.Int64
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				r := reqs[i]
				g := graphs[r]
				cov, err := p.MinimumPathCover(context.Background(), g)
				if err != nil {
					t.Errorf("req %d: %v", i, err)
					return
				}
				if cov.NumPaths != want[r] {
					t.Errorf("req %d: %d paths, want %d", i, cov.NumPaths, want[r])
					return
				}
				if err := g.Verify(cov.Paths); err != nil {
					t.Errorf("req %d: invalid cover: %v", i, err)
					return
				}
				calls.Add(1)
				vertices.Add(int64(g.N()))
			}
		}()
	}
	wg.Wait()
	st := p.Stats()
	if st.Calls != calls.Load() {
		t.Errorf("pool stats: %d calls, served %d", st.Calls, calls.Load())
	}
	if st.Vertices != vertices.Load() {
		t.Errorf("pool stats: %d vertices, served %d", st.Vertices, vertices.Load())
	}
	if len(st.Shards) != 4 {
		t.Fatalf("stats report %d shards, want 4", len(st.Shards))
	}
	if st.SimTime <= 0 || st.SimWork <= 0 {
		t.Errorf("no simulated cost accumulated: %+v", st)
	}
	if st.InFlight != 0 {
		t.Errorf("in-flight %d after drain", st.InFlight)
	}
}

// TestPoolCoverBatch: results come back in input order, duplicates and
// all, each verified; batch accounting ticks.
func TestPoolCoverBatch(t *testing.T) {
	p := NewPool(WithShards(3))
	defer p.Close()
	var gs []*Graph
	shared := Random(42, 700, Caterpillar)
	for i := 0; i < 30; i++ {
		if i%3 == 0 {
			gs = append(gs, shared) // duplicates must map back to their slots
		} else {
			gs = append(gs, Random(uint64(i), 50+i*37, Shape(i%3)))
		}
	}
	covs, err := p.CoverBatch(context.Background(), gs)
	if err != nil {
		t.Fatal(err)
	}
	if len(covs) != len(gs) {
		t.Fatalf("%d covers for %d graphs", len(covs), len(gs))
	}
	for i, cov := range covs {
		if cov == nil {
			t.Fatalf("cover %d missing", i)
		}
		if err := gs[i].Verify(cov.Paths); err != nil {
			t.Fatalf("cover %d: %v", i, err)
		}
		if want := gs[i].MinPathCoverSize(); cov.NumPaths != want {
			t.Fatalf("cover %d: %d paths, want %d", i, cov.NumPaths, want)
		}
	}
	if st := p.Stats(); st.Batches != 1 || st.Calls != int64(len(gs)) {
		t.Errorf("stats: batches=%d calls=%d, want 1 and %d", st.Batches, st.Calls, len(gs))
	}
}

// TestPoolContextCancellation: a call waiting in the queue must abandon
// the wait when its context expires, and an already-cancelled context
// must fail before admission.
func TestPoolContextCancellation(t *testing.T) {
	p := NewPool(WithShards(1))
	defer p.Close()
	g := Random(1, 200, Mixed)

	// Occupy the only shard directly (same-package access to the slot),
	// so the next call genuinely waits mid-queue.
	p.shards[0].slot <- struct{}{}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := p.MinimumPathCover(ctx, g); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued call: err=%v, want deadline exceeded", err)
	}
	<-p.shards[0].slot

	done, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := p.MinimumPathCover(done, g); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled call: err=%v, want canceled", err)
	}
	if _, err := p.CoverBatch(done, []*Graph{g}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled batch: err=%v, want canceled", err)
	}
	if st := p.Stats(); st.Canceled < 3 {
		t.Errorf("canceled counter %d, want >= 3", st.Canceled)
	}

	// The pool still serves after all that.
	cov, err := p.MinimumPathCover(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Verify(cov.Paths); err != nil {
		t.Fatal(err)
	}
}

// TestPoolAdmissionControl: with the queue bounded, excess concurrent
// calls fail fast with ErrPoolSaturated instead of piling up.
func TestPoolAdmissionControl(t *testing.T) {
	p := NewPool(WithShards(1), WithQueueDepth(2))
	defer p.Close()
	g := Random(2, 150, Balanced)

	p.shards[0].slot <- struct{}{} // park the shard
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := p.MinimumPathCover(ctx, g)
			errs <- err
		}()
	}
	// Wait until both waiters are admitted and queued on the slot.
	for i := 0; i < 200 && p.Stats().InFlight < 2; i++ {
		time.Sleep(time.Millisecond)
	}
	if got := p.Stats().InFlight; got != 2 {
		t.Fatalf("in-flight %d, want 2", got)
	}
	if _, err := p.MinimumPathCover(context.Background(), g); !errors.Is(err, ErrPoolSaturated) {
		t.Fatalf("third call: err=%v, want ErrPoolSaturated", err)
	}
	if st := p.Stats(); st.Rejected != 1 {
		t.Errorf("rejected counter %d, want 1", st.Rejected)
	}
	cancel() // release the two waiters
	wg.Wait()
	for i := 0; i < 2; i++ {
		if err := <-errs; !errors.Is(err, context.Canceled) {
			t.Errorf("waiter error %v, want canceled", err)
		}
	}
	<-p.shards[0].slot
}

// TestPoolBatchSingleAdmission: a batch occupies exactly one admission
// slot however many shard segments it fans out to — a queue depth
// shorter than the shard count must not starve batches on an idle pool.
func TestPoolBatchSingleAdmission(t *testing.T) {
	p := NewPool(WithShards(4), WithQueueDepth(1))
	defer p.Close()
	var gs []*Graph
	for i := 0; i < 12; i++ {
		gs = append(gs, Random(uint64(i), 200+i*83, Shape(i%3)))
	}
	covs, err := p.CoverBatch(context.Background(), gs)
	if err != nil {
		t.Fatalf("batch on depth-1 queue: %v", err)
	}
	for i, cov := range covs {
		if err := gs[i].Verify(cov.Paths); err != nil {
			t.Fatalf("cover %d: %v", i, err)
		}
	}
	// An idle 4-shard pool must spread a 4-segment batch across shards.
	st := p.Stats()
	busy := 0
	for _, sh := range st.Shards {
		if sh.Calls > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Errorf("batch segments collapsed onto %d shard(s)", busy)
	}
}

// TestPoolCloseDuringInflightBatch: Close must wait out (or cleanly
// abort) an in-flight batch, never race the shard solvers, and fail all
// subsequent calls with ErrPoolClosed.
func TestPoolCloseDuringInflightBatch(t *testing.T) {
	p := NewPool(WithShards(2))
	var gs []*Graph
	for i := 0; i < 24; i++ {
		gs = append(gs, Random(uint64(i), 3000+i*501, Shape(i%3)))
	}
	type result struct {
		covs []*Cover
		err  error
	}
	resc := make(chan result, 1)
	go func() {
		covs, err := p.CoverBatch(context.Background(), gs)
		resc <- result{covs, err}
	}()
	// Let the batch get going, then yank the pool.
	for i := 0; i < 500 && p.Stats().Calls == 0; i++ {
		time.Sleep(time.Millisecond)
	}
	p.Close()
	p.Close() // idempotent
	res := <-resc
	switch {
	case res.err == nil:
		// The batch beat the close; every cover must be intact.
		for i, cov := range res.covs {
			if err := gs[i].Verify(cov.Paths); err != nil {
				t.Fatalf("cover %d after close race: %v", i, err)
			}
		}
	case errors.Is(res.err, ErrPoolClosed):
		// Aborted mid-batch: the all-or-nothing contract discards results.
		if res.covs != nil {
			t.Fatalf("aborted batch returned partial results")
		}
	default:
		t.Fatalf("batch error %v, want nil or ErrPoolClosed", res.err)
	}
	if _, err := p.MinimumPathCover(context.Background(), gs[0]); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("call after Close: err=%v, want ErrPoolClosed", err)
	}
	if _, err := p.CoverBatch(context.Background(), gs[:2]); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("batch after Close: err=%v, want ErrPoolClosed", err)
	}
	if _, _, err := p.HamiltonianPath(context.Background(), gs[0]); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("hamiltonian after Close: err=%v, want ErrPoolClosed", err)
	}
}

// TestPoolHamiltonian mirrors the Solver Hamiltonian contract through
// the pool, with owned (copied-out) results.
func TestPoolHamiltonian(t *testing.T) {
	p := NewPool(WithShards(2))
	defer p.Close()
	ctx := context.Background()

	c4 := MustParseCotree("(1 (0 a b) (0 c d))")
	path, ok, err := p.HamiltonianPath(ctx, c4)
	if err != nil || !ok || len(path) != 4 {
		t.Fatalf("C4 path: %v ok=%v err=%v", path, ok, err)
	}
	cyc, ok, err := p.HamiltonianCycle(ctx, c4)
	if err != nil || !ok || len(cyc) != 4 {
		t.Fatalf("C4 cycle: %v ok=%v err=%v", cyc, ok, err)
	}
	disc := Union(Vertex("x"), Vertex("y"))
	if _, ok, err := p.HamiltonianPath(ctx, disc); err != nil || ok {
		t.Fatalf("disconnected: ok=%v err=%v, want false,nil", ok, err)
	}
	// The returned slices are owned: a later call must not clobber them.
	before := append([]int(nil), path...)
	if _, _, err := p.HamiltonianPath(ctx, MustParseCotree("(1 a b)")); err != nil {
		t.Fatal(err)
	}
	for i := range path {
		if path[i] != before[i] {
			t.Fatal("earlier Hamiltonian result mutated by a later call")
		}
	}
}

// TestPoolCoverAllocsSteady: a pooled cover in steady state allocates a
// small, n-independent number of objects per call (the clone-out plus a
// fixed overhead), inheriting the Solver's arena discipline.
func TestPoolCoverAllocsSteady(t *testing.T) {
	var per [2]float64
	for i, n := range []int{1 << 12, 1 << 14} {
		p := NewPool(WithShards(1))
		g := Random(9, n, Mixed)
		ctx := context.Background()
		for j := 0; j < 2; j++ { // warm the arena
			if _, err := p.MinimumPathCover(ctx, g); err != nil {
				t.Fatal(err)
			}
		}
		per[i] = testing.AllocsPerRun(10, func() {
			if _, err := p.MinimumPathCover(ctx, g); err != nil {
				t.Fatal(err)
			}
		})
		p.Close()
	}
	for i, n := range []int{1 << 12, 1 << 14} {
		if per[i] > 1024 {
			t.Errorf("n=%d: %.0f allocs/op, want <= 1024", n, per[i])
		}
	}
	if per[1] > 2*per[0]+64 {
		t.Errorf("allocs/op grow with n: %.0f at 4096 vs %.0f at 16384", per[0], per[1])
	}
}

// TestPoolDefaults: the zero-option pool runs one single-worker shard
// per scheduler processor.
func TestPoolDefaults(t *testing.T) {
	p := NewPool()
	defer p.Close()
	if p.NumShards() != pram.DefaultShards() {
		t.Fatalf("NumShards = %d, want DefaultShards %d", p.NumShards(), pram.DefaultShards())
	}
	st := p.Stats()
	if st.QueueDepth != 8*p.NumShards() {
		t.Errorf("default queue depth %d, want %d", st.QueueDepth, 8*p.NumShards())
	}
	for _, sh := range st.Shards {
		if sh.Workers != pram.WorkersForShards(p.NumShards()) {
			t.Errorf("shard %d workers = %d, want %d", sh.Shard, sh.Workers, pram.WorkersForShards(p.NumShards()))
		}
	}
	cov, err := p.MinimumPathCover(context.Background(), Random(1, 512, Mixed))
	if err != nil || cov.NumPaths < 1 {
		t.Fatalf("default pool cover: %+v err=%v", cov, err)
	}
}

// TestPoolWorkerBudget checks that k shards each get
// pram.WorkersForShards(k) workers, so shards×workers never
// oversubscribes the host.
func TestPoolWorkerBudget(t *testing.T) {
	for _, k := range []int{1, 2, 3} {
		p := NewPool(WithShards(k))
		for _, row := range p.Stats().Shards {
			if want := pram.WorkersForShards(k); row.Workers != want {
				t.Errorf("%d shards: shard %d workers = %d, want %d", k, row.Shard, row.Workers, want)
			}
		}
		p.Close()
	}
}

// TestPoolTieBreakLowestShard pins the dispatcher's tie-break: on an
// idle pool every shard ties at zero load, and the call goes to the
// lowest id. A lone sequential caller therefore stays on shard 0 and
// keeps a single warm arena, instead of growing one on every shard.
func TestPoolTieBreakLowestShard(t *testing.T) {
	p := NewPool(WithShards(2))
	defer p.Close()
	for i := 0; i < 10; i++ {
		cov, err := p.MinimumPathCover(context.Background(), Random(uint64(i+1), 64+8*i, Balanced))
		if err != nil {
			t.Fatal(err)
		}
		if cov.Shard != 0 {
			t.Fatalf("call %d landed on shard %d, want 0", i, cov.Shard)
		}
	}
	st := p.Stats()
	if st.Shards[0].Calls != 10 {
		t.Errorf("shard 0 served %d calls, want 10", st.Shards[0].Calls)
	}
	if st.Shards[1].ArenaBytes != 0 {
		t.Errorf("shard 1 ArenaBytes = %d, want 0", st.Shards[1].ArenaBytes)
	}
}
