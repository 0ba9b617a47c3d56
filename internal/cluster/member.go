package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"sync/atomic"
	"time"
)

// NodeState is a member's health state. State transitions are driven
// by both the active prober (periodic /healthz) and passive outcomes
// of live requests; both funnel through Gateway.noteOK / noteFail
// under the membership lock.
type NodeState int32

const (
	// Healthy members are on the ring and serve their keys.
	Healthy NodeState = iota
	// Probation members are back on the ring after ejection but not yet
	// trusted: one failure re-ejects immediately (no failure-threshold
	// grace), further successes graduate them to Healthy.
	Probation
	// Ejected members are off the ring; no live traffic routes to them
	// first-choice, but the prober keeps probing and consecutive probe
	// successes readmit them on probation.
	Ejected
)

// String renders the membership state as Stats reports it.
func (s NodeState) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Probation:
		return "probation"
	default:
		return "ejected"
	}
}

// member is one backend node and its health bookkeeping. The health
// fields (state, consecutive counters) are guarded by the Gateway's
// membership lock; the per-node serving counters are atomics.
type member struct {
	name string // ring identity and id-prefix: "n0", "n1", ...
	url  string // base URL, no trailing slash

	state       NodeState
	consecFails int
	consecOKs   int
	ejections   int64

	routed  atomic.Int64 // requests this node ultimately answered
	retried atomic.Int64 // retry attempts directed at this node
}

// noteFail records a health failure of m (transport error, 502/504, or
// a failed probe) and ejects it after the configured run of
// consecutive failures. Probation members re-eject on the first
// failure. Returns true when this call ejected the node.
func (g *Gateway) noteFail(m *member) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	m.consecOKs = 0
	m.consecFails++
	if m.state == Ejected {
		return false
	}
	if m.state == Probation || m.consecFails >= g.opts.FailThreshold {
		m.state = Ejected
		m.ejections++
		g.stats.ejections.Add(1)
		g.ring.Remove(m.name)
		return true
	}
	return false
}

// noteOK records a health success of m (any HTTP answer from the node,
// or a passing probe). Ejected members need the configured run of
// consecutive successes to re-enter — on probation, not directly
// healthy; probation members graduate to Healthy after a further run.
func (g *Gateway) noteOK(m *member) {
	g.mu.Lock()
	defer g.mu.Unlock()
	m.consecFails = 0
	m.consecOKs++
	switch m.state {
	case Ejected:
		if m.consecOKs >= g.opts.ProbationOKs {
			m.state = Probation
			m.consecOKs = 0
			g.stats.readmissions.Add(1)
			g.ring.Add(m.name)
		}
	case Probation:
		if m.consecOKs >= g.opts.HealthyOKs {
			m.state = Healthy
		}
	}
}

// probeLoop drives active health: every ProbeInterval each member —
// ejected ones included, they have no other way back — gets a
// GET /healthz with its own timeout, and the outcome feeds the same
// state machine as live request outcomes.
func (g *Gateway) probeLoop() {
	t := time.NewTicker(g.opts.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-g.done:
			return
		case <-t.C:
			for _, m := range g.nodes {
				go g.probe(m)
			}
		}
	}
}

func (g *Gateway) probe(m *member) {
	ctx, cancel := context.WithTimeout(context.Background(), g.opts.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, m.url+"/healthz", nil)
	if err != nil {
		g.noteFail(m)
		return
	}
	resp, err := g.client.Do(req)
	if err != nil {
		g.noteFail(m)
		return
	}
	defer resp.Body.Close()
	var body struct {
		OK bool `json:"ok"`
	}
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&body) != nil || !body.OK {
		g.noteFail(m)
		return
	}
	g.noteOK(m)
}
