package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"ecsort/internal/algo"
	"ecsort/internal/service"
)

// Handler returns the coordinator's HTTP API — the same route table a
// single-binary service exposes (clients cannot tell a coordinator
// from a node), plus per-node fleet state on the health and metrics
// endpoints. Collection operations are forwarded to the owning node,
// and the ingest, delete, invalidate, classes, class-of and stats
// routes write the node's reply body byte for byte, never decoding it;
// /v1/algorithms is answered locally (the registry is compiled in,
// identical on every binary).
func (co *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", co.handleHealthz)
	mux.HandleFunc("GET /healthz/live", co.handleHealthz)
	mux.HandleFunc("GET /healthz/ready", co.handleReady)
	mux.HandleFunc("GET /metrics", co.handleMetrics)
	mux.HandleFunc("GET /v1/collections", co.handleList)
	mux.HandleFunc("GET /v1/algorithms", co.handleAlgorithms)
	mux.HandleFunc("PUT /v1/collections/{key}", co.handleCreate)
	mux.HandleFunc("DELETE /v1/collections/{key}", co.handleDrop)
	mux.HandleFunc("POST /v1/collections/{key}/items", co.handleIngest)
	mux.HandleFunc("DELETE /v1/collections/{key}/items/{element}", co.handleDeleteItem)
	mux.HandleFunc("GET /v1/collections/{key}/classes", co.handleClasses)
	mux.HandleFunc("GET /v1/collections/{key}/classes/{element}", co.handleClassOf)
	mux.HandleFunc("POST /v1/collections/{key}/classes/{class}/invalidate", co.handleInvalidate)
	mux.HandleFunc("GET /v1/collections/{key}/stats", co.handleStats)
	mux.HandleFunc("PATCH /v1/collections/{key}/resilience", co.handleUpdateResilience)
	return mux
}

type errorResponse struct {
	Error string `json:"error"`
}

// writeBody writes one JSON response body: a node's reply relayed
// verbatim, or a value of the coordinator's own encoded by
// service.AppendJSON.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

// writeErrorMsg writes the JSON error envelope.
func writeErrorMsg(w http.ResponseWriter, status int, msg string) {
	writeBody(w, status, service.AppendJSON(nil, errorResponse{Error: msg}))
}

// relay forwards one keyed operation to the collection's owner and
// writes the owner's success body with status, byte for byte: the body
// a single node's handler writes, never decoded here.
func (co *Coordinator) relay(w http.ResponseWriter, r *http.Request, status int, o op, args any) {
	body, err := co.forward(r.Context(), o, r.PathValue("key"), args)
	if err != nil {
		writeError(w, err)
		return
	}
	writeBody(w, status, body)
}

// writeError maps coordinator-side errors to statuses: degraded
// rejections (tripped breaker OR down node) become 503 + Retry-After,
// remote failures relay the owning node's status, local routing errors
// use the service table.
func writeError(w http.ResponseWriter, err error) {
	var de *service.DegradedError
	if errors.As(err, &de) {
		secs := int64((de.RetryAfter + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
		writeErrorMsg(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	var re *RemoteError
	if errors.As(err, &re) {
		writeErrorMsg(w, re.Status, re.Msg)
		return
	}
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, service.ErrNotFound):
		status = http.StatusNotFound
	case errors.Is(err, service.ErrExists):
		status = http.StatusConflict
	case errors.Is(err, service.ErrBadItem), errors.Is(err, service.ErrBadSpec):
		status = http.StatusBadRequest
	}
	writeErrorMsg(w, status, err.Error())
}

func decodeBody(r *http.Request, v any) error {
	dec := json.NewDecoder(io.LimitReader(r.Body, 64<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("cluster: bad request body: %w", err)
	}
	return nil
}

func boolParam(r *http.Request, name string) bool {
	switch strings.ToLower(r.URL.Query().Get(name)) {
	case "1", "true", "yes", "on":
		return true
	}
	return false
}

// pathInt parses the integer path segment name, answering 400 itself
// when it is not one.
func pathInt(w http.ResponseWriter, r *http.Request, name string) (int, bool) {
	v, err := strconv.Atoi(r.PathValue(name))
	if err != nil {
		writeErrorMsg(w, http.StatusBadRequest, fmt.Sprintf("cluster: bad %s %q: not an integer", name, r.PathValue(name)))
		return 0, false
	}
	return v, true
}

func (co *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	co.mu.RLock()
	collections := len(co.routes)
	co.mu.RUnlock()
	writeBody(w, http.StatusOK, service.AppendJSON(nil, map[string]any{
		"status":         "ok",
		"role":           "coordinator",
		"uptime_seconds": co.Uptime().Seconds(),
		"nodes":          len(co.nodes),
		"collections":    collections,
	}))
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
	writeBody(w, status, service.AppendJSON(nil, body))
}

func (co *Coordinator) handleList(w http.ResponseWriter, r *http.Request) {
	writeBody(w, http.StatusOK, service.AppendJSON(nil, map[string]any{"collections": co.List(r.Context())}))
}

func (co *Coordinator) handleAlgorithms(w http.ResponseWriter, r *http.Request) {
	writeBody(w, http.StatusOK, service.AppendJSON(nil, map[string]any{
		"default":    service.AlgorithmIncremental,
		"algorithms": algo.Infos(),
	}))
}

func (co *Coordinator) handleCreate(w http.ResponseWriter, r *http.Request) {
	var spec service.OracleSpec
	if err := decodeBody(r, &spec); err != nil {
		writeErrorMsg(w, http.StatusBadRequest, err.Error())
		return
	}
	info, err := co.CreateCollection(r.Context(), r.PathValue("key"), spec)
	if err != nil {
		writeError(w, err)
		return
	}
	writeBody(w, http.StatusCreated, service.AppendJSON(nil, map[string]any{
		"key":       info.Key,
		"kind":      info.Kind,
		"universe":  info.Universe,
		"algorithm": info.Algorithm,
	}))
}

func (co *Coordinator) handleDrop(w http.ResponseWriter, r *http.Request) {
	if err := co.DropCollection(r.Context(), r.PathValue("key")); err != nil {
		writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (co *Coordinator) handleIngest(w http.ResponseWriter, r *http.Request) {
	var body struct {
		Items []int `json:"items"`
	}
	if err := decodeBody(r, &body); err != nil {
		writeErrorMsg(w, http.StatusBadRequest, err.Error())
		return
	}
	co.relay(w, r, http.StatusAccepted, opIngest, ingestArgs{Items: body.Items, Flush: boolParam(r, "flush")})
}

func (co *Coordinator) handleDeleteItem(w http.ResponseWriter, r *http.Request) {
	if element, ok := pathInt(w, r, "element"); ok {
		co.relay(w, r, http.StatusOK, opDelete, deleteArgs{Element: element})
	}
}

func (co *Coordinator) handleClasses(w http.ResponseWriter, r *http.Request) {
	co.relay(w, r, http.StatusOK, opClasses, classArgs{Fresh: boolParam(r, "fresh")})
}

func (co *Coordinator) handleClassOf(w http.ResponseWriter, r *http.Request) {
	if element, ok := pathInt(w, r, "element"); ok {
		co.relay(w, r, http.StatusOK, opClassOf, classOfArgs{Element: element, Fresh: boolParam(r, "fresh")})
	}
}

func (co *Coordinator) handleInvalidate(w http.ResponseWriter, r *http.Request) {
	if class, ok := pathInt(w, r, "class"); ok {
		co.relay(w, r, http.StatusAccepted, opInvalidate, invalidateArgs{Class: class, Flush: boolParam(r, "flush")})
	}
}

func (co *Coordinator) handleStats(w http.ResponseWriter, r *http.Request) {
	co.relay(w, r, http.StatusOK, opStats, nil)
}

func (co *Coordinator) handleUpdateResilience(w http.ResponseWriter, r *http.Request) {
	var rs service.ResilienceSpec
	if err := decodeBody(r, &rs); err != nil {
		writeErrorMsg(w, http.StatusBadRequest, err.Error())
		return
	}
	key := r.PathValue("key")
	if err := co.UpdateResilience(r.Context(), key, rs); err != nil {
		writeError(w, err)
		return
	}
	writeBody(w, http.StatusOK, service.AppendJSON(nil, map[string]any{"key": key, "resilience": rs}))
}

// handleMetrics renders cluster-level metrics: fleet shape, per-node
// routing and health gauges, and placement counters. Node-internal
// metrics (WAL, folds, oracle counters) stay on each node's own
// /metrics — scraping both gives the full picture without the
// coordinator re-exporting anything.
func (co *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	states := co.Health(r.Context())
	fmt.Fprintf(w, "# HELP ecsort_cluster_nodes Backend nodes in the cluster.\n")
	fmt.Fprintf(w, "# TYPE ecsort_cluster_nodes gauge\n")
	fmt.Fprintf(w, "ecsort_cluster_nodes %d\n", len(states))
	co.mu.RLock()
	fmt.Fprintf(w, "# HELP ecsort_cluster_collections Collections in the routing table.\n")
	fmt.Fprintf(w, "# TYPE ecsort_cluster_collections gauge\n")
	fmt.Fprintf(w, "ecsort_cluster_collections %d\n", len(co.routes))
	co.mu.RUnlock()
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
