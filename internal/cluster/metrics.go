package cluster

import (
	"net/http"

	"pathcover/internal/metrics"
)

// ServeMetrics renders the gateway's counters as Prometheus text: the
// fleet totals plus per-member routed/retried/ejection families
// labelled by node name, all derived from one Stats snapshot.
func (g *Gateway) ServeMetrics(w http.ResponseWriter, r *http.Request) {
	st := g.Stats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	mw := metrics.NewWriter(w)

	mw.Counter("pathcover_gateway_requests_total", "Requests accepted by the gateway.",
		float64(st.Requests))
	mw.Counter("pathcover_gateway_routed_total", "Requests answered by some node.",
		float64(st.Routed))
	mw.Counter("pathcover_gateway_retries_total", "Retry attempts beyond each chain's first.",
		float64(st.Retries))
	mw.Counter("pathcover_gateway_ejections_total", "Members ejected by health checking.",
		float64(st.Ejections))
	mw.Counter("pathcover_gateway_readmissions_total", "Ejected members readmitted after probation.",
		float64(st.Readmissions))
	mw.Counter("pathcover_gateway_batch_items_total", "Batch items fanned out across the ring.",
		float64(st.BatchItems))
	mw.Counter("pathcover_gateway_rerouted_total", "Batch items served off their primary owner.",
		float64(st.Rerouted))

	routed := make([]metrics.LabelledValue, 0, len(st.Nodes))
	retried := make([]metrics.LabelledValue, 0, len(st.Nodes))
	ejections := make([]metrics.LabelledValue, 0, len(st.Nodes))
	healthy := make([]metrics.LabelledValue, 0, len(st.Nodes))
	for _, n := range st.Nodes {
		routed = append(routed, metrics.LabelledValue{Label: n.Name, Value: float64(n.Routed)})
		retried = append(retried, metrics.LabelledValue{Label: n.Name, Value: float64(n.Retried)})
		ejections = append(ejections, metrics.LabelledValue{Label: n.Name, Value: float64(n.Ejections)})
		up := 0.0
		if n.State == "healthy" {
			up = 1
		}
		healthy = append(healthy, metrics.LabelledValue{Label: n.Name, Value: up})
	}
	mw.CounterVec("pathcover_gateway_node_routed_total", "Requests answered per member.",
		"node", routed)
	mw.CounterVec("pathcover_gateway_node_retried_total", "Retries charged per member.",
		"node", retried)
	mw.CounterVec("pathcover_gateway_node_ejections_total", "Health ejections per member.",
		"node", ejections)
	mw.GaugeVec("pathcover_gateway_node_healthy", "1 while the member is in the healthy state.",
		"node", healthy)
	_ = mw.Err()
}
