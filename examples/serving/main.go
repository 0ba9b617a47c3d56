// Serving: the sharded Pool as a multi-tenant query layer — concurrent
// single covers from many goroutines, a batch split across the shards,
// bounded admission, and the per-shard accounting.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sync"

	"pathcover"
)

func main() {
	// Two shards, a short admission queue. Each shard owns a Solver with
	// a pinned worker budget (GOMAXPROCS divided across the shards), so
	// the pool never oversubscribes the host no matter how many
	// goroutines call into it.
	pool := pathcover.NewPool(pathcover.WithShards(2), pathcover.WithQueueDepth(16))
	defer pool.Close()
	ctx := context.Background()

	// A serving catalog: a handful of graphs queried over and over.
	catalog := []*pathcover.Graph{
		pathcover.Random(1, 3000, pathcover.Mixed),
		pathcover.Random(2, 5000, pathcover.Caterpillar),
		pathcover.Random(3, 8000, pathcover.Balanced),
		pathcover.Clique(2048),
	}

	// Concurrent single covers: calls land on the least-loaded shard.
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				g := catalog[(w+i)%len(catalog)]
				cov, err := pool.MinimumPathCover(ctx, g)
				if err != nil {
					// Under real load ErrPoolSaturated asks the caller to
					// back off; with depth 16 and 32 requests it won't fire.
					if errors.Is(err, pathcover.ErrPoolSaturated) {
						continue
					}
					log.Fatal(err)
				}
				if err := g.Verify(cov.Paths); err != nil {
					log.Fatal(err)
				}
			}
		}(w)
	}
	wg.Wait()

	// A batch: the pool splits it in input order into one contiguous
	// segment per shard, balanced by vertex count, and returns the
	// covers in input order.
	batch := []*pathcover.Graph{
		catalog[0], catalog[1], catalog[0], catalog[2], catalog[0], catalog[3],
	}
	covers, err := pool.CoverBatch(ctx, batch)
	if err != nil {
		log.Fatal(err)
	}
	for i, cov := range covers {
		fmt.Printf("batch[%d]: n=%d -> %d path(s), simulated time %d\n",
			i, batch[i].N(), cov.NumPaths, cov.Stats.Time)
	}

	// The pool keeps per-shard serving statistics.
	st := pool.Stats()
	fmt.Printf("\npool: %d calls (%d batched), %d vertices served\n",
		st.Calls, st.Batches, st.Vertices)
	for _, sh := range st.Shards {
		fmt.Printf("  shard %d (%d workers): %d calls, %d vertices, simwork %d\n",
			sh.Shard, sh.Workers, sh.Calls, sh.Vertices, sh.SimWork)
	}
}
