package daemon

import (
	"math"
	"sync"
	"sync/atomic"
)

// batchGate is the weighted-admission gate of the batch QoS tier: at
// most cap batch requests may be inside the daemon at once, where cap
// is the batch tier's share of the pool's admission bound. Interactive
// traffic is never gated here — it competes only at the pool's own
// admission — so a flood of /batch calls can at worst consume its share
// of the queue, never starve /cover.
type batchGate struct {
	cap      int64 // 0 = ungated
	inflight atomic.Int64
}

// newBatchGate sizes the gate: share (0..1) of the pool's admission
// bound, at least 1 so batches always make progress. An unbounded queue
// or a share >= 1 disables the gate.
func newBatchGate(share float64, queueDepth int) *batchGate {
	g := &batchGate{}
	if share > 0 && share < 1 && queueDepth > 0 {
		g.cap = int64(math.Max(1, share*float64(queueDepth)))
	}
	return g
}

// admit claims a batch slot; the returned release must be called once
// when the request finishes. ok=false means the batch tier is at its
// share and the request must be shed (503 + Retry-After).
func (g *batchGate) admit() (release func(), ok bool) {
	if g.cap == 0 {
		return func() {}, true
	}
	if g.inflight.Add(1) > g.cap {
		g.inflight.Add(-1)
		return nil, false
	}
	return func() { g.inflight.Add(-1) }, true
}

// costEstimator learns the daemon's serving rate as an EWMA of
// nanoseconds per vertex over completed solves. Because the paper's
// algorithm is linear-time, ns/vertex is nearly constant across sizes,
// so a request's cost is predictable from n alone *before* it is
// admitted — the property that makes cost-based shedding principled
// here rather than heuristic.
type costEstimator struct {
	mu       sync.Mutex
	nsPerV   float64 // EWMA; 0 until the first observation
	weight   float64 // smoothing factor for new observations
	observed int64
}

func newCostEstimator() *costEstimator { return &costEstimator{weight: 0.2} }

// observe folds one completed solve (n vertices in elapsedNS) into the
// estimate. Cache hits must not be observed — they cost no solve time
// and would drag the estimate toward zero.
func (e *costEstimator) observe(n int, elapsedNS int64) {
	if n <= 0 || elapsedNS <= 0 {
		return
	}
	sample := float64(elapsedNS) / float64(n)
	e.mu.Lock()
	if e.nsPerV == 0 {
		e.nsPerV = sample
	} else {
		e.nsPerV += e.weight * (sample - e.nsPerV)
	}
	e.observed++
	e.mu.Unlock()
}

// nsPerVertex reads the current estimate (0 = no data yet).
func (e *costEstimator) nsPerVertex() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.nsPerV
}

// seed primes the estimate directly (tests, or an operator-supplied
// prior).
func (e *costEstimator) seed(nsPerV float64) {
	e.mu.Lock()
	e.nsPerV = nsPerV
	e.mu.Unlock()
}

// shedAction is the QoS layer's verdict on one request before it is
// admitted to the pool.
type shedAction int

const (
	shedAdmit   shedAction = iota // within budget: solve normally
	shedDegrade                   // over budget: serve the cheap approximate tier
	shedReject                    // over budget and cannot degrade: 503 + Retry-After
)

// shedCheck projects the queue cost of admitting cost more vertices —
// (outstanding load + cost) × ns/vertex ÷ shards — against the
// configured budget. Under budget (or with shedding disabled, or no
// estimate yet) the request is admitted. Over budget, requests that may
// degrade — unpinned, non-strict /cover requests whose graph already
// carries an explicit edge list, so the switch costs no conversion —
// are downgraded to the approximation backend (answering exact:false
// plus a certified gap); the rest are rejected. The projection reads
// two atomics — the decision itself never queues.
func (s *Server) shedCheck(cost int, canDegrade bool) shedAction {
	if s.cfg.ShedAfter <= 0 {
		return shedAdmit
	}
	nsPerV := s.estimator.nsPerVertex()
	if nsPerV == 0 {
		return shedAdmit // no data yet: never shed blind
	}
	projected := (float64(s.pool.Load()) + float64(cost)) * nsPerV / float64(s.pool.NumShards())
	if projected <= float64(s.cfg.ShedAfter.Nanoseconds()) {
		return shedAdmit
	}
	if canDegrade {
		return shedDegrade
	}
	return shedReject
}
