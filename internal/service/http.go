package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
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
	cols := s.collections()
	for _, c := range cols {
		if ra, bad := c.degraded(); bad {
			degraded = append(degraded, degradedInfo{
				Key:               c.key,
				Breaker:           c.res.State().String(),
				RetryAfterSeconds: ra.Seconds(),
			})
		}
	}
	body := map[string]any{
		"status":      "ready",
		"collections": len(cols),
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

// handleMetrics renders Prometheus text metrics: service-wide totals
// plus per-collection series, labeled by collection key. Each
// collection's counters, snapshot and resilience counters are read
// exactly once per scrape, so every series of one collection comes from
// the same flush, and every family lists the same collections.
func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	type row struct {
		CollectionInfo
		res *oracle.ResilientStats // nil without the resilience middleware
	}
	cols := s.collections()
	rows := make([]row, len(cols))
	var totalElems, totalPending, totalBatches, totalFlushes int64
	for i, c := range cols {
		rows[i].CollectionInfo = c.info(true)
		if c.res != nil {
			st := c.res.Stats()
			rows[i].res = &st
		}
		totalElems += rows[i].Ingested
		totalPending += rows[i].Pending
		totalBatches += rows[i].Batches
		totalFlushes += rows[i].Flushes
	}
	m := NewMetricsWriter(w)
	m.Family("ecsort_collections", "gauge", "Number of live collections.").Int(int64(len(rows)))
	m.Family("ecsort_elements_ingested_total", "counter", "Elements accepted across all collections.").Int(totalElems)
	m.Family("ecsort_elements_pending", "gauge", "Buffered elements awaiting a flush.").Int(totalPending)
	m.Family("ecsort_batches_total", "counter", "Accepted ingest batches.").Int(totalBatches)
	m.Family("ecsort_flushes_total", "counter", "Folds of pending elements into collection answers.").Int(totalFlushes)

	// Execution runtime: the persistent pool every collection's session
	// runs its parallel rounds on.
	rs := s.pool.Stats()
	m.Family("ecsort_runtime_workers", "gauge", "Parallel width of the shared execution pool.").Int(int64(rs.Workers))
	m.Family("ecsort_runtime_jobs_total", "counter", "Parallel jobs dispatched to the pool: comparison rounds and merge-level passes.").Int(rs.Jobs)
	m.Family("ecsort_runtime_chunks_total", "counter", "Work chunks executed across all pool jobs.").Int(rs.Chunks)
	m.Family("ecsort_runtime_inline_rounds_total", "counter", "Rounds executed serially on the submitting goroutine.").Int(rs.Inline)

	// Backpressure: shard op-queue depth (writer backlog under overload)
	// and batch-fold latency (how long Flush+publish holds a shard).
	m.Family("ecsort_shard_queue_depth", "gauge", "Queued writer ops per shard.")
	for i, sh := range s.shards {
		m.LabeledInt("shard", strconv.Itoa(i), int64(len(sh.ops)))
	}
	m.Family("ecsort_shard_queue_capacity", "gauge", "Bound of each shard's op queue.").Int(int64(cap(s.shards[0].ops)))
	m.Family("ecsort_fold_total", "counter", "Batch folds (flush+publish) executed on shard goroutines.").Int(s.folds.Load())
	m.Family("ecsort_fold_duration_seconds_total", "counter", "Cumulative batch-fold latency.").Seconds(time.Duration(s.foldNanos.Load()))
	m.Family("ecsort_fold_last_duration_seconds", "gauge", "Latency of the most recent batch fold.").Seconds(time.Duration(s.lastFoldNanos.Load()))

	// Durability: WAL append/fsync activity, checkpoint progress, and
	// what the last boot recovered. ecsort_durable is 0 for a
	// memory-only service, and the families below then read as zeros.
	m.Family("ecsort_durable", "gauge", "Whether the service runs with a write-ahead-logged data directory.").Int(BoolMetric(s.recovery.Durable))
	m.Family("ecsort_wal_appends_total", "counter", "Records appended across all shard WALs.").Int(s.walCtr.Appends.Load())
	m.Family("ecsort_wal_bytes_total", "counter", "Framed bytes written to shard WALs.").Int(s.walCtr.Bytes.Load())
	m.Family("ecsort_wal_fsyncs_total", "counter", "WAL fsyncs issued by the durability policy.").Int(s.walCtr.Fsyncs.Load())
	m.Family("ecsort_wal_fsync_duration_seconds_total", "counter", "Cumulative time spent in WAL fsync.").Seconds(time.Duration(s.walCtr.FsyncNanos.Load()))
	m.Family("ecsort_wal_last_fsync_duration_seconds", "gauge", "Duration of the most recent WAL fsync.").Seconds(time.Duration(s.walCtr.LastFsyncNanos.Load()))
	m.Family("ecsort_wal_rotations_total", "counter", "Size-triggered WAL segment rotations (no checkpoint).").Int(s.walRotations.Load())
	m.Family("ecsort_checkpoints_total", "counter", "Shard checkpoints written (snapshot + WAL truncation).").Int(s.checkpoints.Load())
	m.Family("ecsort_checkpoint_errors_total", "counter", "Failed checkpoint attempts.").Int(s.checkpointErrors.Load())
	m.Family("ecsort_checkpoint_last_age_seconds", "gauge", "Seconds since the most recent checkpoint; -1 before the first.").Age(s.lastCheckpointNano.Load())
	m.Family("ecsort_recovery_duration_seconds", "gauge", "Wall time the last boot spent replaying durable state.").Seconds(s.recovery.Duration)
	m.Family("ecsort_recovery_records_replayed", "gauge", "WAL records replayed by the last boot.").Int(int64(s.recovery.Records))
	m.Family("ecsort_recovery_torn_tails", "gauge", "Segments whose crash-torn final record the last boot truncated.").Int(int64(s.recovery.TornTails))

	// Self-repair daemon: sweep/sample/divergence/correction totals plus
	// how recently a divergence was last seen (-1 before the first).
	m.Family("ecsort_repair_sweeps_total", "counter", "Repair sweeps executed.").Int(s.repairSweeps.Load())
	m.Family("ecsort_repair_samples_total", "counter", "Element pairs re-verified against their oracle.").Int(s.repairSamples.Load())
	m.Family("ecsort_repair_divergences_total", "counter", "Sampled pairs whose oracle verdict contradicted the published partition.").Int(s.repairDivergences.Load())
	m.Family("ecsort_repair_corrections_total", "counter", "Divergences repaired (classes withdrawn and re-folded).").Int(s.repairCorrections.Load())
	m.Family("ecsort_repair_skipped_degraded_total", "counter", "Collection sweeps skipped because the oracle breaker was open.").Int(s.repairSkipped.Load())
	m.Family("ecsort_repair_errors_total", "counter", "Failed repair oracle asks and correction attempts.").Int(s.repairErrors.Load())
	m.Family("ecsort_repair_last_divergence_age_seconds", "gauge", "Seconds since the repair daemon last saw a divergence; -1 before the first.").Age(s.lastDivergenceNano.Load())

	// Fault tolerance: per-collection degraded/breaker gauges and the
	// resilience middleware's counters, only for collections that carry
	// the middleware.
	m.Family("ecsort_collection_degraded", "gauge", "Whether the collection's oracle breaker currently refuses writes.")
	for _, in := range rows {
		m.LabeledInt("collection", in.Key, BoolMetric(in.RetryAfterSeconds > 0))
	}
	for _, f := range []struct {
		name, help string
		value      func(*oracle.ResilientStats) int64
	}{
		{"ecsort_oracle_attempts_total", "Oracle calls issued through the resilience middleware (incl. retries and votes).",
			func(st *oracle.ResilientStats) int64 { return st.Attempts }},
		{"ecsort_oracle_retries_total", "Backed-off oracle re-attempts.",
			func(st *oracle.ResilientStats) int64 { return st.Retries }},
		{"ecsort_oracle_failures_total", "Oracle asks that exhausted their retry budget.",
			func(st *oracle.ResilientStats) int64 { return st.Failures }},
		{"ecsort_oracle_fast_fails_total", "Oracle calls rejected by an open circuit breaker.",
			func(st *oracle.ResilientStats) int64 { return st.FastFails }},
		{"ecsort_oracle_breaker_trips_total", "Circuit breaker trips.",
			func(st *oracle.ResilientStats) int64 { return st.Trips }},
		{"ecsort_oracle_batch_asks_total", "Whole-chunk exchanges issued through the middleware's batch path.",
			func(st *oracle.ResilientStats) int64 { return st.BatchAsks }},
		{"ecsort_oracle_batch_fallbacks_total", "Pairs re-asked individually after a batch exchange failed them.",
			func(st *oracle.ResilientStats) int64 { return st.BatchFallbacks }},
	} {
		m.Family(f.name, "counter", f.help)
		for _, in := range rows {
			if in.res != nil {
				m.LabeledInt("collection", in.Key, f.value(in.res))
			}
		}
	}

	// Batch-oracle amortization, service-wide: rounds is SameBatch
	// invocations (one per worker-pool chunk), pairs the tests they
	// carried — pairs/rounds is the amortization factor the batch path
	// buys over per-pair dispatch.
	m.Family("ecsort_oracle_batch_rounds_total", "counter", "Whole-chunk oracle invocations across all collections.").Int(s.batchRounds.Load())
	m.Family("ecsort_oracle_batch_pairs_total", "counter", "Equivalence tests answered through whole-chunk oracle invocations.").Int(s.batchPairs.Load())

	// Per-collection gauges from the published snapshots (comparisons,
	// rounds, widest round, class counts), never touching the writers,
	// then the churn counters: deletes, class withdrawals, repair
	// corrections.
	for _, f := range []struct {
		name, typ, help string
		value           func(CollectionInfo) int64
	}{
		{"ecsort_collection_classes", "gauge", "Classes in the published snapshot.",
			func(in CollectionInfo) int64 { return int64(in.Classes) }},
		{"ecsort_collection_comparisons_total", "counter", "Equivalence tests charged to the collection's session.",
			func(in CollectionInfo) int64 { return in.Snapshot.Stats.Comparisons }},
		{"ecsort_collection_rounds_total", "counter", "Physical comparison rounds executed.",
			func(in CollectionInfo) int64 { return int64(in.Snapshot.Stats.Rounds) }},
		{"ecsort_collection_max_round_size", "gauge", "Widest physical round so far.",
			func(in CollectionInfo) int64 { return int64(in.Snapshot.Stats.MaxRoundSize) }},
		{"ecsort_collection_elements", "gauge", "Elements covered by the published snapshot.",
			func(in CollectionInfo) int64 { return int64(in.Snapshot.Size) }},
		{"ecsort_collection_deleted_total", "counter", "Elements removed by delete calls.",
			func(in CollectionInfo) int64 { return in.Deleted }},
		{"ecsort_collection_invalidated_total", "counter", "Class withdrawals (explicit invalidations plus repair corrections).",
			func(in CollectionInfo) int64 { return in.Invalidated }},
		{"ecsort_collection_repaired_total", "counter", "Divergences the repair daemon corrected.",
			func(in CollectionInfo) int64 { return in.Repaired }},
	} {
		m.Family(f.name, f.typ, f.help)
		for _, in := range rows {
			m.LabeledInt("collection", in.Key, f.value(in.CollectionInfo))
		}
	}
}
