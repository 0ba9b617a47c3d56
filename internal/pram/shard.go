package pram

import "runtime"

// Shard-aware worker sizing for multi-Sim deployments.
//
// A single Sim defaults its worker pool to GOMAXPROCS, which is right
// when it is the only executor in the process. A solver pool that owns M
// independent Sims must not let every shard claim the whole host, or M
// concurrent covers run M*GOMAXPROCS goroutines and thrash the
// scheduler. These helpers partition the host budget so that
// shards * WorkersForShards(shards) <= GOMAXPROCS always holds.

// DefaultShards is the default shard count for a solver pool on this
// host: one shard per scheduler processor, so each shard runs one
// worker. Serving-size solves sit below the sequential cutover and run
// on one thread whatever their worker budget, so a shard per CPU keeps
// every CPU solving instead of queueing requests behind fewer,
// wider shards.
func DefaultShards() int {
	return runtime.GOMAXPROCS(0)
}

// WorkersForShards returns the per-shard worker budget for a pool of
// the given shard count: floor(GOMAXPROCS/shards), at least 1. The
// product shards*w never exceeds GOMAXPROCS (except when shards alone
// already does, where each shard degenerates to one inline worker).
func WorkersForShards(shards int) int {
	if shards < 1 {
		shards = 1
	}
	return max(1, runtime.GOMAXPROCS(0)/shards)
}
