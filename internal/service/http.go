package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"ecsort/internal/algo"
	"ecsort/internal/oracle"
)

// Handler returns the service's HTTP API: the collection routes
// (Routes) run against this service, plus the node's own endpoints:
//
//	GET    /v1/collections               list collections
//	GET    /healthz                      liveness (also /healthz/live)
//	GET    /healthz/ready                readiness: 503 while any collection is degraded or recovery failed
//	GET    /metrics                      Prometheus-style text metrics
//
// All request and response bodies are JSON except /metrics.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /healthz/live", s.handleHealthz)
	mux.HandleFunc("GET /healthz/ready", s.handleReady)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/collections", s.handleList)
	Routes(mux, s)
	return mux
}

// Routes registers the collection API on mux, running every request
// through ex — the one route table a single node (ex is its *Service)
// and a cluster coordinator (ex forwards to the owning node) share:
//
//	PUT    /v1/collections/{key}         create a collection (body: OracleSpec; "algorithm" picks the regimen)
//	DELETE /v1/collections/{key}         drop a collection
//	POST   /v1/collections/{key}/items   batch add (body: {"items":[...]}; ?flush=1 forces a flush)
//	DELETE /v1/collections/{key}/items/{element}    remove one element (WAL-logged; re-addable later)
//	GET    /v1/collections/{key}/classes current partition (?fresh=1 flushes first)
//	GET    /v1/collections/{key}/classes/{element}  one element's class (O(1) index lookup; ?fresh=1 flushes first)
//	POST   /v1/collections/{key}/classes/{class}/invalidate  withdraw a class for re-verification (?flush=1 re-folds now)
//	GET    /v1/collections/{key}/stats   per-collection counters + snapshot
//	PATCH  /v1/collections/{key}/resilience  live-update the resilience profile (body: ResilienceSpec)
//	GET    /v1/algorithms                list the sorting-regimen registry (name, mode, hints)
//
// Each route parses its request into an Op and its Args, answers a
// request it cannot parse with 400, and otherwise writes the body
// ex.Do returns with the route's status, or the error's StatusOf.
// Writes against a degraded collection (oracle circuit breaker open, or
// its cluster node down) get 503 with a Retry-After header; reads keep
// serving the last published snapshot.
func Routes(mux *http.ServeMux, ex Executor) {
	mux.Handle("PUT /v1/collections/{key}", route(ex, OpCreate, http.StatusCreated))
	mux.Handle("DELETE /v1/collections/{key}", route(ex, OpDrop, http.StatusNoContent))
	mux.Handle("POST /v1/collections/{key}/items", route(ex, OpIngest, http.StatusAccepted))
	mux.Handle("DELETE /v1/collections/{key}/items/{element}", route(ex, OpDelete, http.StatusOK))
	mux.Handle("GET /v1/collections/{key}/classes", route(ex, OpClasses, http.StatusOK))
	mux.Handle("GET /v1/collections/{key}/classes/{element}", route(ex, OpClassOf, http.StatusOK))
	mux.Handle("POST /v1/collections/{key}/classes/{class}/invalidate", route(ex, OpInvalidate, http.StatusAccepted))
	mux.Handle("GET /v1/collections/{key}/stats", route(ex, OpStats, http.StatusOK))
	mux.Handle("PATCH /v1/collections/{key}/resilience", route(ex, OpResilience, http.StatusOK))
	mux.HandleFunc("GET /v1/algorithms", handleAlgorithms)
}

// route serves one collection route: parse (op, args), run them through
// ex, write the body with status.
func route(ex Executor, op Op, status int) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var a Args
		var err error
		switch op {
		case OpCreate:
			a.Spec = new(OracleSpec)
			err = decodeBody(r, a.Spec)
		case OpResilience:
			a.Resilience = new(ResilienceSpec)
			err = decodeBody(r, a.Resilience)
		case OpIngest:
			// The hottest write path decodes through the pooled streaming
			// decoder (ingestdecode.go) instead of decodeBody: items land
			// in a reusable arena with zero per-item allocations. Every
			// executor is done with the items once Do returns (the service
			// copies what it keeps; a coordinator has encoded them onto
			// the wire), so the arena is recycled after the reply.
			d := getItemsDecoder()
			defer putItemsDecoder(d)
			a.Items, err = d.decode(io.LimitReader(r.Body, maxIngestBody))
			a.Flush = boolParam(r, "flush")
		case OpDelete:
			a.Element, err = pathInt(r, "element")
		case OpClassOf:
			a.Element, err = pathInt(r, "element")
			a.Flush = boolParam(r, "fresh")
		case OpInvalidate:
			a.Element, err = pathInt(r, "class")
			a.Flush = boolParam(r, "flush")
		case OpClasses:
			a.Flush = boolParam(r, "fresh")
		}
		if err != nil {
			writeError(w, BadRequest(err))
			return
		}
		body, err := ex.Do(r.Context(), nil, op, r.PathValue("key"), a)
		if err != nil {
			writeError(w, err)
			return
		}
		writeBody(w, status, body)
	}
}

// errorResponse is the JSON error envelope.
type errorResponse struct {
	Error string `json:"error"`
}

// writeBody writes one JSON response body; a 204 carries none.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	if status == http.StatusNoContent {
		w.WriteHeader(status)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

// WriteJSON writes v as a JSON response body (AppendJSON's encoding)
// with status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	writeBody(w, status, AppendJSON(nil, v))
}

// writeError writes err's JSON envelope with its StatusOf status, plus
// Retry-After on a degraded rejection.
func writeError(w http.ResponseWriter, err error) {
	status, retryAfter := StatusOf(err)
	if retryAfter > 0 {
		// Tell the client when the breaker (or the down node's cooldown)
		// admits its next probe. Ceil to whole seconds, minimum 1 —
		// Retry-After: 0 would invite an immediate hammer.
		secs := max(int64((retryAfter+time.Second-1)/time.Second), 1)
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	WriteJSON(w, status, errorResponse{Error: err.Error()})
}

// decodeBody parses a JSON request body into v, rejecting unknown fields
// so client typos fail loudly.
func decodeBody(r *http.Request, v any) error {
	dec := json.NewDecoder(io.LimitReader(r.Body, 64<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("service: bad request body: %w", err)
	}
	return nil
}

// pathInt parses the integer path segment name.
func pathInt(r *http.Request, name string) (int, error) {
	v, err := strconv.Atoi(r.PathValue(name))
	if err != nil {
		return 0, fmt.Errorf("service: bad %s %q: not an integer", name, r.PathValue(name))
	}
	return v, nil
}

// boolParam interprets ?name=1 / true / yes / on (any case) as true.
func boolParam(r *http.Request, name string) bool {
	switch strings.ToLower(r.URL.Query().Get(name)) {
	case "1", "true", "yes", "on":
		return true
	}
	return false
}

// handleAlgorithms serves the sorting-regimen registry: the names a
// collection spec's "algorithm" field accepts, each with its
// comparison-model mode, consumed/required hints, and round complexity.
// The registry is compiled in, identical on every binary.
func handleAlgorithms(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, map[string]any{
		"default":    AlgorithmIncremental,
		"algorithms": algo.Infos(),
	})
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"uptime_seconds": s.Uptime().Seconds(),
		"shards":         len(s.shards),
		"collections":    len(s.Collections()),
	})
}

// handleReady is the readiness probe: 200 when every collection's
// oracle breaker admits writes, 503 with the degraded collections —
// their breaker state and probe cooldown — otherwise. Liveness
// (/healthz, /healthz/live) stays 200 throughout: a degraded service is
// alive, still serving snapshots, and must not be restarted into losing
// them.
func (s *Service) handleReady(w http.ResponseWriter, r *http.Request) {
	type degradedInfo struct {
		Key               string  `json:"key"`
		Breaker           string  `json:"breaker"`
		RetryAfterSeconds float64 `json:"retry_after_seconds"`
	}
	var degraded []degradedInfo
	collections := 0
	for _, sh := range s.shards {
		sh.mu.RLock()
		for _, c := range sh.cols {
			collections++
			if ra, bad := c.degraded(); bad {
				degraded = append(degraded, degradedInfo{
					Key:               c.key,
					Breaker:           c.res.State().String(),
					RetryAfterSeconds: ra.Seconds(),
				})
			}
		}
		sh.mu.RUnlock()
	}
	sort.Slice(degraded, func(i, j int) bool { return degraded[i].Key < degraded[j].Key })
	body := map[string]any{
		"status":      "ready",
		"collections": collections,
		"recovery":    s.recovery,
	}
	status := http.StatusOK
	if len(degraded) > 0 {
		body["status"] = "degraded"
		body["degraded"] = degraded
		status = http.StatusServiceUnavailable
	}
	WriteJSON(w, status, body)
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, map[string]any{"collections": s.Collections()})
}

// handleMetrics renders Prometheus-style text metrics: service-wide
// totals plus per-collection series, labeled by collection key. Each
// collection's snapshot is loaded exactly once per scrape, so every
// series of one collection comes from the same flush.
func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	var infos []CollectionInfo
	for _, sh := range s.shards {
		sh.mu.RLock()
		for _, c := range sh.cols {
			infos = append(infos, c.info(true))
		}
		sh.mu.RUnlock()
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Key < infos[j].Key })
	var totalElems, totalPending, totalBatches, totalFlushes int64
	for _, in := range infos {
		totalElems += in.Ingested
		totalPending += in.Pending
		totalBatches += in.Batches
		totalFlushes += in.Flushes
	}
	fmt.Fprintf(w, "# HELP ecsort_collections Number of live collections.\n")
	fmt.Fprintf(w, "# TYPE ecsort_collections gauge\n")
	fmt.Fprintf(w, "ecsort_collections %d\n", len(infos))
	fmt.Fprintf(w, "# HELP ecsort_elements_ingested_total Elements accepted across all collections.\n")
	fmt.Fprintf(w, "# TYPE ecsort_elements_ingested_total counter\n")
	fmt.Fprintf(w, "ecsort_elements_ingested_total %d\n", totalElems)
	fmt.Fprintf(w, "# HELP ecsort_elements_pending Buffered elements awaiting a flush.\n")
	fmt.Fprintf(w, "# TYPE ecsort_elements_pending gauge\n")
	fmt.Fprintf(w, "ecsort_elements_pending %d\n", totalPending)
	fmt.Fprintf(w, "# HELP ecsort_batches_total Accepted ingest batches.\n")
	fmt.Fprintf(w, "# TYPE ecsort_batches_total counter\n")
	fmt.Fprintf(w, "ecsort_batches_total %d\n", totalBatches)
	fmt.Fprintf(w, "# HELP ecsort_flushes_total Compounding flush rounds executed.\n")
	fmt.Fprintf(w, "# TYPE ecsort_flushes_total counter\n")
	fmt.Fprintf(w, "ecsort_flushes_total %d\n", totalFlushes)

	// Execution runtime: the persistent pool every collection's session
	// runs its parallel rounds on.
	rs := s.pool.Stats()
	fmt.Fprintf(w, "# HELP ecsort_runtime_workers Parallel width of the shared execution pool.\n")
	fmt.Fprintf(w, "# TYPE ecsort_runtime_workers gauge\n")
	fmt.Fprintf(w, "ecsort_runtime_workers %d\n", rs.Workers)
	fmt.Fprintf(w, "# HELP ecsort_runtime_jobs_total Parallel round jobs dispatched to the pool.\n")
	fmt.Fprintf(w, "# TYPE ecsort_runtime_jobs_total counter\n")
	fmt.Fprintf(w, "ecsort_runtime_jobs_total %d\n", rs.Jobs)
	fmt.Fprintf(w, "# HELP ecsort_runtime_chunks_total Work chunks executed across all pool jobs.\n")
	fmt.Fprintf(w, "# TYPE ecsort_runtime_chunks_total counter\n")
	fmt.Fprintf(w, "ecsort_runtime_chunks_total %d\n", rs.Chunks)
	fmt.Fprintf(w, "# HELP ecsort_runtime_inline_rounds_total Rounds executed serially on the submitting goroutine.\n")
	fmt.Fprintf(w, "# TYPE ecsort_runtime_inline_rounds_total counter\n")
	fmt.Fprintf(w, "ecsort_runtime_inline_rounds_total %d\n", rs.Inline)

	// Backpressure: shard op-queue depth (writer backlog under overload)
	// and batch-fold latency (how long Flush+publish holds a shard).
	fmt.Fprintf(w, "# HELP ecsort_shard_queue_depth Queued writer ops per shard.\n")
	fmt.Fprintf(w, "# TYPE ecsort_shard_queue_depth gauge\n")
	for i, sh := range s.shards {
		fmt.Fprintf(w, "ecsort_shard_queue_depth{shard=\"%d\"} %d\n", i, len(sh.ops))
	}
	fmt.Fprintf(w, "# HELP ecsort_shard_queue_capacity Bound of each shard's op queue.\n")
	fmt.Fprintf(w, "# TYPE ecsort_shard_queue_capacity gauge\n")
	fmt.Fprintf(w, "ecsort_shard_queue_capacity %d\n", cap(s.shards[0].ops))
	fmt.Fprintf(w, "# HELP ecsort_fold_total Batch folds (flush+publish) executed on shard goroutines.\n")
	fmt.Fprintf(w, "# TYPE ecsort_fold_total counter\n")
	fmt.Fprintf(w, "ecsort_fold_total %d\n", s.folds.Load())
	fmt.Fprintf(w, "# HELP ecsort_fold_duration_seconds_total Cumulative batch-fold latency.\n")
	fmt.Fprintf(w, "# TYPE ecsort_fold_duration_seconds_total counter\n")
	fmt.Fprintf(w, "ecsort_fold_duration_seconds_total %.9f\n", float64(s.foldNanos.Load())/1e9)
	fmt.Fprintf(w, "# HELP ecsort_fold_last_duration_seconds Latency of the most recent batch fold.\n")
	fmt.Fprintf(w, "# TYPE ecsort_fold_last_duration_seconds gauge\n")
	fmt.Fprintf(w, "ecsort_fold_last_duration_seconds %.9f\n", float64(s.lastFoldNanos.Load())/1e9)

	// Durability: WAL append/fsync activity, checkpoint progress, and
	// what the last boot recovered. ecsort_durable is 0 for a
	// memory-only service, and the families below then read as zeros.
	fmt.Fprintf(w, "# HELP ecsort_durable Whether the service runs with a write-ahead-logged data directory.\n")
	fmt.Fprintf(w, "# TYPE ecsort_durable gauge\n")
	fmt.Fprintf(w, "ecsort_durable %d\n", boolMetric(s.recovery.Durable))
	fmt.Fprintf(w, "# HELP ecsort_wal_appends_total Records appended across all shard WALs.\n")
	fmt.Fprintf(w, "# TYPE ecsort_wal_appends_total counter\n")
	fmt.Fprintf(w, "ecsort_wal_appends_total %d\n", s.walCtr.Appends.Load())
	fmt.Fprintf(w, "# HELP ecsort_wal_bytes_total Framed bytes written to shard WALs.\n")
	fmt.Fprintf(w, "# TYPE ecsort_wal_bytes_total counter\n")
	fmt.Fprintf(w, "ecsort_wal_bytes_total %d\n", s.walCtr.Bytes.Load())
	fmt.Fprintf(w, "# HELP ecsort_wal_fsyncs_total WAL fsyncs issued by the durability policy.\n")
	fmt.Fprintf(w, "# TYPE ecsort_wal_fsyncs_total counter\n")
	fmt.Fprintf(w, "ecsort_wal_fsyncs_total %d\n", s.walCtr.Fsyncs.Load())
	fmt.Fprintf(w, "# HELP ecsort_wal_fsync_duration_seconds_total Cumulative time spent in WAL fsync.\n")
	fmt.Fprintf(w, "# TYPE ecsort_wal_fsync_duration_seconds_total counter\n")
	fmt.Fprintf(w, "ecsort_wal_fsync_duration_seconds_total %.9f\n", float64(s.walCtr.FsyncNanos.Load())/1e9)
	fmt.Fprintf(w, "# HELP ecsort_wal_last_fsync_duration_seconds Duration of the most recent WAL fsync.\n")
	fmt.Fprintf(w, "# TYPE ecsort_wal_last_fsync_duration_seconds gauge\n")
	fmt.Fprintf(w, "ecsort_wal_last_fsync_duration_seconds %.9f\n", float64(s.walCtr.LastFsyncNanos.Load())/1e9)
	fmt.Fprintf(w, "# HELP ecsort_wal_rotations_total Size-triggered WAL segment rotations (no checkpoint).\n")
	fmt.Fprintf(w, "# TYPE ecsort_wal_rotations_total counter\n")
	fmt.Fprintf(w, "ecsort_wal_rotations_total %d\n", s.walRotations.Load())
	fmt.Fprintf(w, "# HELP ecsort_checkpoints_total Shard checkpoints written (snapshot + WAL truncation).\n")
	fmt.Fprintf(w, "# TYPE ecsort_checkpoints_total counter\n")
	fmt.Fprintf(w, "ecsort_checkpoints_total %d\n", s.checkpoints.Load())
	fmt.Fprintf(w, "# HELP ecsort_checkpoint_errors_total Failed checkpoint attempts.\n")
	fmt.Fprintf(w, "# TYPE ecsort_checkpoint_errors_total counter\n")
	fmt.Fprintf(w, "ecsort_checkpoint_errors_total %d\n", s.checkpointErrors.Load())
	fmt.Fprintf(w, "# HELP ecsort_checkpoint_last_age_seconds Seconds since the most recent checkpoint; -1 before the first.\n")
	fmt.Fprintf(w, "# TYPE ecsort_checkpoint_last_age_seconds gauge\n")
	if last := s.lastCheckpointNano.Load(); last > 0 {
		fmt.Fprintf(w, "ecsort_checkpoint_last_age_seconds %.3f\n", time.Since(time.Unix(0, last)).Seconds())
	} else {
		fmt.Fprintf(w, "ecsort_checkpoint_last_age_seconds -1\n")
	}
	fmt.Fprintf(w, "# HELP ecsort_recovery_duration_seconds Wall time the last boot spent replaying durable state.\n")
	fmt.Fprintf(w, "# TYPE ecsort_recovery_duration_seconds gauge\n")
	fmt.Fprintf(w, "ecsort_recovery_duration_seconds %.9f\n", s.recovery.Duration.Seconds())
	fmt.Fprintf(w, "# HELP ecsort_recovery_records_replayed WAL records replayed by the last boot.\n")
	fmt.Fprintf(w, "# TYPE ecsort_recovery_records_replayed gauge\n")
	fmt.Fprintf(w, "ecsort_recovery_records_replayed %d\n", s.recovery.Records)
	fmt.Fprintf(w, "# HELP ecsort_recovery_torn_tails Segments whose crash-torn final record the last boot truncated.\n")
	fmt.Fprintf(w, "# TYPE ecsort_recovery_torn_tails gauge\n")
	fmt.Fprintf(w, "ecsort_recovery_torn_tails %d\n", s.recovery.TornTails)

	// Self-repair daemon: sweep/sample/divergence/correction totals plus
	// how recently a divergence was last seen (-1 before the first).
	for _, m := range []struct {
		name, help string
		value      int64
	}{
		{"ecsort_repair_sweeps_total", "Repair sweeps executed.", s.repairSweeps.Load()},
		{"ecsort_repair_samples_total", "Element pairs re-verified against their oracle.", s.repairSamples.Load()},
		{"ecsort_repair_divergences_total", "Sampled pairs whose oracle verdict contradicted the published partition.", s.repairDivergences.Load()},
		{"ecsort_repair_corrections_total", "Divergences repaired (classes withdrawn and re-folded).", s.repairCorrections.Load()},
		{"ecsort_repair_skipped_degraded_total", "Collection sweeps skipped because the oracle breaker was open.", s.repairSkipped.Load()},
		{"ecsort_repair_errors_total", "Failed repair oracle asks and correction attempts.", s.repairErrors.Load()},
	} {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", m.name, m.help, m.name, m.name, m.value)
	}
	fmt.Fprintf(w, "# HELP ecsort_repair_last_divergence_age_seconds Seconds since the repair daemon last saw a divergence; -1 before the first.\n")
	fmt.Fprintf(w, "# TYPE ecsort_repair_last_divergence_age_seconds gauge\n")
	if last := s.lastDivergenceNano.Load(); last > 0 {
		fmt.Fprintf(w, "ecsort_repair_last_divergence_age_seconds %.3f\n", time.Since(time.Unix(0, last)).Seconds())
	} else {
		fmt.Fprintf(w, "ecsort_repair_last_divergence_age_seconds -1\n")
	}

	// Fault tolerance: per-collection degraded/breaker gauges and the
	// resilience middleware's counters, only for collections that carry
	// the middleware.
	fmt.Fprintf(w, "# HELP ecsort_collection_degraded Whether the collection's oracle breaker currently refuses writes.\n")
	fmt.Fprintf(w, "# TYPE ecsort_collection_degraded gauge\n")
	for _, in := range infos {
		fmt.Fprintf(w, "ecsort_collection_degraded{collection=%q} %d\n", in.Key, boolMetric(in.RetryAfterSeconds > 0))
	}
	resStats := make(map[string]oracle.ResilientStats)
	for _, sh := range s.shards {
		sh.mu.RLock()
		for _, c := range sh.cols {
			if c.res != nil {
				resStats[c.key] = c.res.Stats()
			}
		}
		sh.mu.RUnlock()
	}
	resKeys := make([]string, 0, len(resStats))
	for k := range resStats {
		resKeys = append(resKeys, k)
	}
	sort.Strings(resKeys)
	for _, m := range []struct {
		name, help string
		value      func(oracle.ResilientStats) int64
	}{
		{"ecsort_oracle_attempts_total", "Oracle calls issued through the resilience middleware (incl. retries and votes).",
			func(st oracle.ResilientStats) int64 { return st.Attempts }},
		{"ecsort_oracle_retries_total", "Backed-off oracle re-attempts.",
			func(st oracle.ResilientStats) int64 { return st.Retries }},
		{"ecsort_oracle_failures_total", "Oracle asks that exhausted their retry budget.",
			func(st oracle.ResilientStats) int64 { return st.Failures }},
		{"ecsort_oracle_fast_fails_total", "Oracle calls rejected by an open circuit breaker.",
			func(st oracle.ResilientStats) int64 { return st.FastFails }},
		{"ecsort_oracle_breaker_trips_total", "Circuit breaker trips.",
			func(st oracle.ResilientStats) int64 { return st.Trips }},
		{"ecsort_oracle_batch_asks_total", "Whole-chunk exchanges issued through the middleware's batch path.",
			func(st oracle.ResilientStats) int64 { return st.BatchAsks }},
		{"ecsort_oracle_batch_fallbacks_total", "Pairs re-asked individually after a batch exchange failed them.",
			func(st oracle.ResilientStats) int64 { return st.BatchFallbacks }},
	} {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", m.name, m.help, m.name)
		for _, k := range resKeys {
			fmt.Fprintf(w, "%s{collection=%q} %d\n", m.name, k, m.value(resStats[k]))
		}
	}

	// Batch-oracle amortization, service-wide: rounds is SameBatch
	// invocations (one per worker-pool chunk), pairs the tests they
	// carried — pairs/rounds is the amortization factor the batch path
	// buys over per-pair dispatch.
	batchRounds, batchPairs := s.BatchOracleStats()
	fmt.Fprintf(w, "# HELP ecsort_oracle_batch_rounds_total Whole-chunk oracle invocations across all collections.\n")
	fmt.Fprintf(w, "# TYPE ecsort_oracle_batch_rounds_total counter\n")
	fmt.Fprintf(w, "ecsort_oracle_batch_rounds_total %d\n", batchRounds)
	fmt.Fprintf(w, "# HELP ecsort_oracle_batch_pairs_total Equivalence tests answered through whole-chunk oracle invocations.\n")
	fmt.Fprintf(w, "# TYPE ecsort_oracle_batch_pairs_total counter\n")
	fmt.Fprintf(w, "ecsort_oracle_batch_pairs_total %d\n", batchPairs)

	// Per-collection gauges from the published snapshots (comparisons,
	// rounds, widest round, class counts), never touching the writers.
	fmt.Fprintf(w, "# HELP ecsort_collection_classes Classes in the published snapshot.\n")
	fmt.Fprintf(w, "# TYPE ecsort_collection_classes gauge\n")
	for _, in := range infos {
		fmt.Fprintf(w, "ecsort_collection_classes{collection=%q} %d\n", in.Key, in.Classes)
	}
	for _, m := range []struct {
		name, typ, help string
		value           func(*Snapshot) int64
	}{
		{"ecsort_collection_comparisons_total", "counter", "Equivalence tests charged to the collection's session.",
			func(sn *Snapshot) int64 { return sn.Stats.Comparisons }},
		{"ecsort_collection_rounds_total", "counter", "Physical comparison rounds executed.",
			func(sn *Snapshot) int64 { return int64(sn.Stats.Rounds) }},
		{"ecsort_collection_max_round_size", "gauge", "Widest physical round so far.",
			func(sn *Snapshot) int64 { return int64(sn.Stats.MaxRoundSize) }},
		{"ecsort_collection_elements", "gauge", "Elements covered by the published snapshot.",
			func(sn *Snapshot) int64 { return int64(sn.Size) }},
	} {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", m.name, m.help, m.name, m.typ)
		for _, in := range infos {
			fmt.Fprintf(w, "%s{collection=%q} %d\n", m.name, in.Key, m.value(in.Snapshot))
		}
	}

	// Churn counters: deletes, class withdrawals, repair corrections.
	for _, m := range []struct {
		name, help string
		value      func(CollectionInfo) int64
	}{
		{"ecsort_collection_deleted_total", "Elements removed by delete calls.",
			func(in CollectionInfo) int64 { return in.Deleted }},
		{"ecsort_collection_invalidated_total", "Class withdrawals (explicit invalidations plus repair corrections).",
			func(in CollectionInfo) int64 { return in.Invalidated }},
		{"ecsort_collection_repaired_total", "Divergences the repair daemon corrected.",
			func(in CollectionInfo) int64 { return in.Repaired }},
	} {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", m.name, m.help, m.name)
		for _, in := range infos {
			fmt.Fprintf(w, "%s{collection=%q} %d\n", m.name, in.Key, m.value(in))
		}
	}
}

// boolMetric renders a bool as the 0/1 gauge Prometheus expects.
func boolMetric(b bool) int {
	if b {
		return 1
	}
	return 0
}
