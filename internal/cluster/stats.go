package cluster

import "sync/atomic"

// counters are the gateway-level serving totals rendered at /metrics.
// Per-node breakdowns live on the members.
type counters struct {
	requests     atomic.Int64 // requests accepted by the gateway
	routed       atomic.Int64 // requests answered by some node
	retries      atomic.Int64 // retry attempts (beyond each chain's first)
	ejections    atomic.Int64
	readmissions atomic.Int64
	batchItems   atomic.Int64 // batch items fanned out
	rerouted     atomic.Int64 // batch items served off their primary owner
}

// NodeStats is one member's row in a GatewayStats snapshot.
type NodeStats struct {
	Name      string
	State     string
	Routed    int64
	Retried   int64
	Ejections int64
}

// GatewayStats is a snapshot of the gateway's counters, the one source
// /metrics renders.
type GatewayStats struct {
	Nodes        []NodeStats
	Requests     int64
	Routed       int64
	Retries      int64
	Ejections    int64
	Readmissions int64
	BatchItems   int64
	Rerouted     int64
}

// Stats snapshots the gateway's counters.
func (g *Gateway) Stats() GatewayStats {
	st := GatewayStats{
		Requests:     g.stats.requests.Load(),
		Routed:       g.stats.routed.Load(),
		Retries:      g.stats.retries.Load(),
		Ejections:    g.stats.ejections.Load(),
		Readmissions: g.stats.readmissions.Load(),
		BatchItems:   g.stats.batchItems.Load(),
		Rerouted:     g.stats.rerouted.Load(),
	}
	g.mu.Lock()
	for _, m := range g.nodes {
		st.Nodes = append(st.Nodes, NodeStats{
			Name:      m.name,
			State:     m.state.String(),
			Routed:    m.routed.Load(),
			Retried:   m.retried.Load(),
			Ejections: m.ejections,
		})
	}
	g.mu.Unlock()
	return st
}
