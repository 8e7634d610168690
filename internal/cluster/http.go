package cluster

import (
	"net/http"

	"ecsort/internal/service"
)

// Handler returns the coordinator's HTTP API: the single-node route
// table (service.Routes), run through the coordinator's executor, so
// clients cannot tell a coordinator from a node, plus fleet-wide
// health, readiness, metrics and listing endpoints. Collection
// operations go to the owning node, and their reply bodies are written
// byte for byte, never decoded here.
func (co *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", co.handleHealthz)
	mux.HandleFunc("GET /healthz/live", co.handleHealthz)
	mux.HandleFunc("GET /healthz/ready", co.handleReady)
	mux.HandleFunc("GET /metrics", co.handleMetrics)
	mux.HandleFunc("GET /v1/collections", co.handleList)
	service.Routes(mux, co)
	return mux
}

func (co *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	co.mu.RLock()
	collections := len(co.routes)
	co.mu.RUnlock()
	service.WriteJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"role":           "coordinator",
		"uptime_seconds": co.Uptime().Seconds(),
		"nodes":          len(co.nodes),
		"collections":    collections,
	})
}

// handleReady aggregates readiness across the fleet: 200 when every
// node is up and no collection is degraded, 503 with per-node state
// otherwise. One dead node degrades ONLY its own section — the report
// names it, and the other nodes' collections keep serving.
func (co *Coordinator) handleReady(w http.ResponseWriter, r *http.Request) {
	states := co.Health(r.Context())
	ready := true
	for _, st := range states {
		if !st.Up || len(st.Degraded) > 0 {
			ready = false
		}
	}
	body := map[string]any{"status": "ready", "nodes": states}
	status := http.StatusOK
	if !ready {
		body["status"] = "degraded"
		status = http.StatusServiceUnavailable
	}
	service.WriteJSON(w, status, body)
}

func (co *Coordinator) handleList(w http.ResponseWriter, r *http.Request) {
	service.WriteJSON(w, http.StatusOK, map[string]any{"collections": co.List(r.Context())})
}

// handleMetrics renders cluster-level metrics: fleet shape, per-node
// routing and health gauges, and placement counters. Node-internal
// metrics (WAL, folds, oracle counters) stay on each node's own
// /metrics — scraping both gives the full picture without the
// coordinator re-exporting anything.
func (co *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	states := co.Health(r.Context())
	// Read the route count, then write: a slow client must not hold the
	// route lock that creates, drops and every keyed lookup take.
	co.mu.RLock()
	collections := len(co.routes)
	co.mu.RUnlock()
	m := service.NewMetricsWriter(w)
	m.Family("ecsort_cluster_nodes", "gauge", "Backend nodes in the cluster.").Int(int64(len(states)))
	m.Family("ecsort_cluster_collections", "gauge", "Collections in the routing table.").Int(int64(collections))
	for _, f := range []struct {
		name, typ, help string
		value           func(NodeState) int64
	}{
		{"ecsort_cluster_node_up", "gauge", "Whether the node answered its last exchange.",
			func(st NodeState) int64 { return service.BoolMetric(st.Up) }},
		{"ecsort_cluster_node_collections", "gauge", "Collections owned by the node.",
			func(st NodeState) int64 { return int64(st.Collections) }},
		{"ecsort_cluster_routed_total", "counter", "Requests routed to the node.",
			func(st NodeState) int64 { return st.Routed }},
		{"ecsort_cluster_route_errors_total", "counter", "Transport-level failures per node.",
			func(st NodeState) int64 { return st.Errors }},
		{"ecsort_cluster_node_degraded_collections", "gauge", "Degraded collections reported by the node.",
			func(st NodeState) int64 { return int64(len(st.Degraded)) }},
	} {
		m.Family(f.name, f.typ, f.help)
		for _, st := range states {
			m.LabeledInt("node", st.Name, f.value(st))
		}
	}
	m.Family("ecsort_cluster_heavy_placements_total", "counter", "Collections the weight estimator steered off their hash slot.").Int(co.HeavyPlacements())
}
