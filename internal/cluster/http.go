package cluster

import (
	"fmt"
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
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	states := co.Health(r.Context())
	// Read the route count, then write: a slow client must not hold the
	// route lock that creates, drops and every keyed lookup take.
	co.mu.RLock()
	collections := len(co.routes)
	co.mu.RUnlock()
	fmt.Fprintf(w, "# HELP ecsort_cluster_nodes Backend nodes in the cluster.\n")
	fmt.Fprintf(w, "# TYPE ecsort_cluster_nodes gauge\n")
	fmt.Fprintf(w, "ecsort_cluster_nodes %d\n", len(states))
	fmt.Fprintf(w, "# HELP ecsort_cluster_collections Collections in the routing table.\n")
	fmt.Fprintf(w, "# TYPE ecsort_cluster_collections gauge\n")
	fmt.Fprintf(w, "ecsort_cluster_collections %d\n", collections)
	fmt.Fprintf(w, "# HELP ecsort_cluster_node_up Whether the node answered its last exchange.\n")
	fmt.Fprintf(w, "# TYPE ecsort_cluster_node_up gauge\n")
	for _, st := range states {
		up := 0
		if st.Up {
			up = 1
		}
		fmt.Fprintf(w, "ecsort_cluster_node_up{node=%q} %d\n", st.Name, up)
	}
	fmt.Fprintf(w, "# HELP ecsort_cluster_node_collections Collections owned by the node.\n")
	fmt.Fprintf(w, "# TYPE ecsort_cluster_node_collections gauge\n")
	for _, st := range states {
		fmt.Fprintf(w, "ecsort_cluster_node_collections{node=%q} %d\n", st.Name, st.Collections)
	}
	fmt.Fprintf(w, "# HELP ecsort_cluster_routed_total Requests routed to the node.\n")
	fmt.Fprintf(w, "# TYPE ecsort_cluster_routed_total counter\n")
	for _, st := range states {
		fmt.Fprintf(w, "ecsort_cluster_routed_total{node=%q} %d\n", st.Name, st.Routed)
	}
	fmt.Fprintf(w, "# HELP ecsort_cluster_route_errors_total Transport-level failures per node.\n")
	fmt.Fprintf(w, "# TYPE ecsort_cluster_route_errors_total counter\n")
	for _, st := range states {
		fmt.Fprintf(w, "ecsort_cluster_route_errors_total{node=%q} %d\n", st.Name, st.Errors)
	}
	fmt.Fprintf(w, "# HELP ecsort_cluster_node_degraded_collections Degraded collections reported by the node.\n")
	fmt.Fprintf(w, "# TYPE ecsort_cluster_node_degraded_collections gauge\n")
	for _, st := range states {
		fmt.Fprintf(w, "ecsort_cluster_node_degraded_collections{node=%q} %d\n", st.Name, len(st.Degraded))
	}
	fmt.Fprintf(w, "# HELP ecsort_cluster_heavy_placements_total Collections the weight estimator steered off their hash slot.\n")
	fmt.Fprintf(w, "# TYPE ecsort_cluster_heavy_placements_total counter\n")
	fmt.Fprintf(w, "ecsort_cluster_heavy_placements_total %d\n", co.HeavyPlacements())
}
