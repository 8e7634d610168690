package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"ecsort/internal/core"
	"ecsort/internal/model"
	"ecsort/internal/oracle"
)

// call performs one JSON request against the test server and decodes the
// response into out (when non-nil), returning the status code.
func call(t *testing.T, client *http.Client, method, url string, payload, out any) int {
	t.Helper()
	var body io.Reader
	if payload != nil {
		b, err := json.Marshal(payload)
		if err != nil {
			t.Fatal(err)
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: decode %q: %v", method, url, raw, err)
		}
	}
	return resp.StatusCode
}

// TestHTTPIntegration is the acceptance check: the service ingests two
// concurrent batched collections over HTTP, and GET /classes returns the
// same partition a batch SortCR run produces on the union of the
// inserted elements.
func TestHTTPIntegration(t *testing.T) {
	svc := New(Config{Shards: 4, BatchSize: 10})
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	client := ts.Client()

	const n = 120
	rng := rand.New(rand.NewSource(7))
	truthA := oracle.RandomBalanced(n, 5, rng)
	statesB := make([]uint64, n)
	for i := range statesB {
		statesB[i] = uint64(rng.Intn(6))
	}
	truthB := oracle.NewFault(statesB)

	if code := call(t, client, "PUT", ts.URL+"/v1/collections/alpha",
		OracleSpec{Kind: KindLabel, Labels: truthA.Labels()}, nil); code != http.StatusCreated {
		t.Fatalf("create alpha: %d", code)
	}
	if code := call(t, client, "PUT", ts.URL+"/v1/collections/beta",
		OracleSpec{Kind: KindFault, States: statesB}, nil); code != http.StatusCreated {
		t.Fatalf("create beta: %d", code)
	}

	// Two clients ingest both collections concurrently, in batches of 7.
	var wg sync.WaitGroup
	for ci, key := range []string{"alpha", "beta"} {
		wg.Add(1)
		go func(ci int, key string) {
			defer wg.Done()
			order := rand.New(rand.NewSource(int64(ci))).Perm(n)
			for lo := 0; lo < n; lo += 7 {
				hi := min(lo+7, n)
				var res IngestResult
				code := call(t, client, "POST", ts.URL+"/v1/collections/"+key+"/items",
					map[string][]int{"items": order[lo:hi]}, &res)
				if code != http.StatusAccepted || res.Accepted != hi-lo {
					t.Errorf("%s batch [%d,%d): code %d, res %+v", key, lo, hi, code, res)
					return
				}
			}
		}(ci, key)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	for key, truth := range map[string]model.Oracle{"alpha": truthA, "beta": truthB} {
		var snap Snapshot
		if code := call(t, client, "GET", ts.URL+"/v1/collections/"+key+"/classes?fresh=1", nil, &snap); code != http.StatusOK {
			t.Fatalf("classes %s: %d", key, code)
		}
		if snap.Size != n {
			t.Fatalf("%s: snapshot covers %d of %d elements", key, snap.Size, n)
		}
		batch, err := core.SortCR(model.NewSession(truth, model.CR), 8)
		if err != nil {
			t.Fatal(err)
		}
		got := core.Result{Classes: snap.Classes}
		if !core.SameClassification(got.Labels(n), batch.Labels(n)) {
			t.Fatalf("%s: HTTP partition differs from batch SortCR", key)
		}
	}

	// Stats and metrics reflect the ingestion.
	var info CollectionInfo
	if code := call(t, client, "GET", ts.URL+"/v1/collections/alpha/stats", nil, &info); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	if info.Ingested != n || info.Pending != 0 || info.Classes != 5 {
		t.Fatalf("alpha info = %+v", info)
	}
	resp, err := client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"ecsort_collections 2",
		fmt.Sprintf("ecsort_elements_ingested_total %d", 2*n),
		`ecsort_collection_classes{collection="alpha"} 5`,
		`ecsort_collection_comparisons_total{collection="beta"}`,
		`ecsort_collection_max_round_size{collection="alpha"}`,
	} {
		if !strings.Contains(string(metrics), want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

func TestHTTPStatusCodes(t *testing.T) {
	svc := New(Config{Shards: 1})
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	client := ts.Client()

	spec := OracleSpec{Kind: KindLabel, Labels: []int{0, 1}}
	if code := call(t, client, "PUT", ts.URL+"/v1/collections/a", spec, nil); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	if code := call(t, client, "PUT", ts.URL+"/v1/collections/a", spec, nil); code != http.StatusConflict {
		t.Fatalf("duplicate create: %d", code)
	}
	if code := call(t, client, "PUT", ts.URL+"/v1/collections/b",
		OracleSpec{Kind: "bogus", Labels: []int{0}}, nil); code != http.StatusBadRequest {
		t.Fatalf("bogus spec: %d, want 400", code)
	}
	if code := call(t, client, "PUT", ts.URL+"/v1/collections/c",
		OracleSpec{Kind: KindGraphIso, Graphs: []GraphSpec{{N: 2, Edges: [][2]int{{0, 5}}}}}, nil); code != http.StatusBadRequest {
		t.Fatalf("bad graph spec: %d, want 400", code)
	}
	if code := call(t, client, "POST", ts.URL+"/v1/collections/missing/items",
		map[string][]int{"items": {0}}, nil); code != http.StatusNotFound {
		t.Fatalf("ingest missing: %d", code)
	}
	if code := call(t, client, "POST", ts.URL+"/v1/collections/a/items",
		map[string][]int{"items": {0, 7}}, nil); code != http.StatusBadRequest {
		t.Fatalf("out-of-range item: %d", code)
	}
	if code := call(t, client, "POST", ts.URL+"/v1/collections/a/items",
		map[string]string{"wrong": "shape"}, nil); code != http.StatusBadRequest {
		t.Fatalf("malformed body: %d", code)
	}
	if code := call(t, client, "GET", ts.URL+"/v1/collections/missing/classes", nil, nil); code != http.StatusNotFound {
		t.Fatalf("classes missing: %d", code)
	}
	if code := call(t, client, "DELETE", ts.URL+"/v1/collections/a", nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete: %d", code)
	}
	if code := call(t, client, "DELETE", ts.URL+"/v1/collections/a", nil, nil); code != http.StatusNotFound {
		t.Fatalf("double delete: %d", code)
	}

	var health map[string]any
	if code := call(t, client, "GET", ts.URL+"/healthz", nil, &health); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	if health["status"] != "ok" {
		t.Fatalf("health = %v", health)
	}
}

// TestHTTPClassOf exercises the point-lookup endpoint: O(1) class-of
// queries served from the snapshot's element→class index, with fresh and
// stale reads, and the 400/404 edges.
func TestHTTPClassOf(t *testing.T) {
	svc := New(Config{Shards: 2, BatchSize: 100})
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	client := ts.Client()

	labels := []int{0, 1, 0, 2, 1, 0}
	if code := call(t, client, "PUT", ts.URL+"/v1/collections/a",
		OracleSpec{Kind: KindLabel, Labels: labels}, nil); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	if code := call(t, client, "POST", ts.URL+"/v1/collections/a/items?flush=1",
		map[string][]int{"items": {0, 1, 2, 3}}, nil); code != http.StatusAccepted {
		t.Fatalf("ingest: %d", code)
	}

	var view ClassView
	if code := call(t, client, "GET", ts.URL+"/v1/collections/a/classes/2", nil, &view); code != http.StatusOK {
		t.Fatalf("class of 2: %d", code)
	}
	if view.Element != 2 || len(view.Members) != 2 || view.Members[0] != 0 || view.Members[1] != 2 {
		t.Fatalf("class of 2 = %+v", view)
	}
	// Classes are ordered by smallest member, so {0,2} is class 0.
	if view.ClassIndex != 0 || view.Version != 1 {
		t.Fatalf("class of 2 = %+v", view)
	}

	// Element 4 is pending (BatchSize not reached): stale read 404s,
	// fresh read flushes and finds it.
	if code := call(t, client, "POST", ts.URL+"/v1/collections/a/items",
		map[string][]int{"items": {4}}, nil); code != http.StatusAccepted {
		t.Fatalf("ingest pending: %d", code)
	}
	if code := call(t, client, "GET", ts.URL+"/v1/collections/a/classes/4", nil, nil); code != http.StatusNotFound {
		t.Fatalf("pending stale lookup: %d, want 404", code)
	}
	if code := call(t, client, "GET", ts.URL+"/v1/collections/a/classes/4?fresh=1", nil, &view); code != http.StatusOK {
		t.Fatalf("pending fresh lookup: %d", code)
	}
	if len(view.Members) != 2 || view.Members[0] != 1 || view.Members[1] != 4 {
		t.Fatalf("class of 4 = %+v", view)
	}

	// Never-ingested element in range: 404. Out of universe: 400. Not an
	// integer: 400. Missing collection: 404.
	if code := call(t, client, "GET", ts.URL+"/v1/collections/a/classes/5", nil, nil); code != http.StatusNotFound {
		t.Fatalf("never-ingested lookup: %d, want 404", code)
	}
	if code := call(t, client, "GET", ts.URL+"/v1/collections/a/classes/99", nil, nil); code != http.StatusBadRequest {
		t.Fatalf("out-of-universe lookup: %d, want 400", code)
	}
	if code := call(t, client, "GET", ts.URL+"/v1/collections/a/classes/x", nil, nil); code != http.StatusBadRequest {
		t.Fatalf("non-integer lookup: %d, want 400", code)
	}
	if code := call(t, client, "GET", ts.URL+"/v1/collections/nope/classes/0", nil, nil); code != http.StatusNotFound {
		t.Fatalf("missing collection lookup: %d, want 404", code)
	}
}

// TestHTTPGraphIsoCollection drives the graph-mining application over
// the wire: permuted copies classify together via fresh reads.
func TestHTTPGraphIsoCollection(t *testing.T) {
	svc := New(Config{Shards: 2})
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	client := ts.Client()

	graphs := []GraphSpec{
		{N: 4, Edges: [][2]int{{0, 1}, {1, 2}, {2, 3}}},         // path
		{N: 4, Edges: [][2]int{{3, 2}, {2, 1}, {1, 0}}},         // path, relabeled
		{N: 4, Edges: [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}}, // cycle
		{N: 4, Edges: [][2]int{{0, 2}, {2, 1}, {1, 3}, {3, 0}}}, // cycle, relabeled
		{N: 4, Edges: [][2]int{{0, 1}, {0, 2}, {0, 3}}},         // star
	}
	if code := call(t, client, "PUT", ts.URL+"/v1/collections/g",
		OracleSpec{Kind: KindGraphIso, Graphs: graphs}, nil); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	if code := call(t, client, "POST", ts.URL+"/v1/collections/g/items",
		map[string][]int{"items": {0, 1, 2, 3, 4}}, nil); code != http.StatusAccepted {
		t.Fatalf("ingest: %d", code)
	}
	var snap Snapshot
	if code := call(t, client, "GET", ts.URL+"/v1/collections/g/classes?fresh=1", nil, &snap); code != http.StatusOK {
		t.Fatalf("classes: %d", code)
	}
	got := core.Result{Classes: snap.Classes}
	want := core.Result{Classes: [][]int{{0, 1}, {2, 3}, {4}}}
	if !core.SameClassification(got.Labels(5), want.Labels(5)) {
		t.Fatalf("graph classes = %v", snap.Classes)
	}
}

// TestHTTPMetricsRuntimeAndBackpressure: /metrics must expose the shared
// execution pool's counters, per-shard op-queue depth, and batch-fold
// latency — the backpressure view of the single-writer shards.
func TestHTTPMetricsRuntimeAndBackpressure(t *testing.T) {
	svc := New(Config{Shards: 2, BatchSize: 4, Workers: 3})
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	client := ts.Client()

	labels := []int{0, 1, 0, 1, 2, 2, 0, 1}
	if st := call(t, client, http.MethodPut, ts.URL+"/v1/collections/bp",
		OracleSpec{Kind: KindLabel, Labels: labels}, nil); st != http.StatusCreated {
		t.Fatalf("create status %d", st)
	}
	var res IngestResult
	if st := call(t, client, http.MethodPost, ts.URL+"/v1/collections/bp/items?flush=1",
		map[string]any{"items": []int{0, 1, 2, 3, 4, 5, 6, 7}}, &res); st != http.StatusAccepted {
		t.Fatalf("ingest status %d", st)
	}
	if !res.Flushed {
		t.Fatal("forced ingest did not flush")
	}

	resp, err := client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	metrics := string(raw)
	for _, want := range []string{
		"ecsort_runtime_workers 3",
		"ecsort_runtime_jobs_total",
		"ecsort_runtime_chunks_total",
		"ecsort_runtime_inline_rounds_total",
		`ecsort_shard_queue_depth{shard="0"} `,
		`ecsort_shard_queue_depth{shard="1"} `,
		"ecsort_shard_queue_capacity 64",
		"ecsort_fold_total 1",
		"ecsort_fold_duration_seconds_total",
		"ecsort_fold_last_duration_seconds",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}
	// The fold-latency counters must have recorded the forced flush.
	if strings.Contains(metrics, "ecsort_fold_duration_seconds_total 0.000000000\n") {
		t.Fatal("fold duration total stayed zero after a forced flush")
	}
	if svc.RuntimeStats().Workers != 3 {
		t.Fatalf("RuntimeStats().Workers = %d, want 3", svc.RuntimeStats().Workers)
	}
}

// TestHTTPAlgorithms: GET /v1/algorithms lists the registry, and a
// collection created with a per-collection regimen over HTTP reports it
// and classifies correctly.
func TestHTTPAlgorithms(t *testing.T) {
	svc := New(Config{Shards: 2})
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	client := ts.Client()

	var listing struct {
		Default    string `json:"default"`
		Algorithms []struct {
			Name     string   `json:"name"`
			Mode     string   `json:"mode"`
			Hints    []string `json:"hints"`
			Required []string `json:"required"`
			Rounds   string   `json:"rounds"`
		} `json:"algorithms"`
	}
	if code := call(t, client, "GET", ts.URL+"/v1/algorithms", nil, &listing); code != http.StatusOK {
		t.Fatalf("GET /v1/algorithms = %d", code)
	}
	if listing.Default != AlgorithmIncremental {
		t.Errorf("default = %q, want %q", listing.Default, AlgorithmIncremental)
	}
	byName := map[string]bool{}
	for _, a := range listing.Algorithms {
		byName[a.Name] = true
		if a.Mode == "" || a.Rounds == "" {
			t.Errorf("%s: incomplete listing %+v", a.Name, a)
		}
	}
	for _, want := range []string{"cr", "cr-unknown-k", "er", "const-round-er", "const-round-er-adaptive", "two-class-er", "round-robin", "naive", "auto"} {
		if !byName[want] {
			t.Errorf("registry listing missing %q", want)
		}
	}
	for _, a := range listing.Algorithms {
		if a.Name == "cr" && (len(a.Required) != 1 || a.Required[0] != "k") {
			t.Errorf("cr required hints = %v, want [k]", a.Required)
		}
		if a.Name == "const-round-er" && (len(a.Required) != 1 || a.Required[0] != "lambda") {
			t.Errorf("const-round-er required hints = %v, want [lambda]", a.Required)
		}
	}

	// Create an ER-regimen collection through the PUT body and use it.
	labels := []int{0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2}
	var created struct {
		Algorithm string `json:"algorithm"`
	}
	code := call(t, client, "PUT", ts.URL+"/v1/collections/hats",
		OracleSpec{Kind: KindLabel, Labels: labels, Algorithm: "er"}, &created)
	if code != http.StatusCreated {
		t.Fatalf("PUT = %d", code)
	}
	if created.Algorithm != "er" {
		t.Errorf("created algorithm = %q", created.Algorithm)
	}
	items := map[string][]int{"items": seq(0, len(labels))}
	if code := call(t, client, "POST", ts.URL+"/v1/collections/hats/items?flush=1", items, nil); code != http.StatusAccepted {
		t.Fatalf("POST items = %d", code)
	}
	var snap Snapshot
	if code := call(t, client, "GET", ts.URL+"/v1/collections/hats/classes", nil, &snap); code != http.StatusOK {
		t.Fatalf("GET classes = %d", code)
	}
	res := core.Result{Classes: snap.Classes}
	if !core.SameClassification(res.Labels(len(labels)), labels) {
		t.Fatal("wrong classification over HTTP with per-collection regimen")
	}
	var info CollectionInfo
	if code := call(t, client, "GET", ts.URL+"/v1/collections/hats/stats", nil, &info); code != http.StatusOK {
		t.Fatalf("GET stats = %d", code)
	}
	if info.Algorithm != "er" {
		t.Errorf("stats algorithm = %q, want er", info.Algorithm)
	}

	// A bad regimen spec is a 400.
	if code := call(t, client, "PUT", ts.URL+"/v1/collections/bad",
		OracleSpec{Kind: KindLabel, Labels: labels, Algorithm: "quantum"}, nil); code != http.StatusBadRequest {
		t.Errorf("PUT bad algorithm = %d, want 400", code)
	}
}

// TestHTTPConstRoundFoldConflict: a λ-promise fold failure is a 409,
// not a 500 — a documented retryable regimen outcome.
func TestHTTPConstRoundFoldConflict(t *testing.T) {
	labels := make([]int, 40)
	labels[3] = 1
	svc := New(Config{Shards: 1})
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	client := ts.Client()
	spec := OracleSpec{Kind: KindLabel, Labels: labels, Algorithm: "const-round-er", Lambda: 0.4, D: 2, Seed: 5}
	if code := call(t, client, "PUT", ts.URL+"/v1/collections/c", spec, nil); code != http.StatusCreated {
		t.Fatalf("PUT = %d", code)
	}
	items := map[string][]int{"items": seq(0, 40)}
	if code := call(t, client, "POST", ts.URL+"/v1/collections/c/items?flush=1", items, nil); code != http.StatusConflict {
		t.Fatalf("POST with failing fold = %d, want 409", code)
	}
}

// TestHTTPMetricsBatchOracle: /metrics must expose the service-wide
// batch-oracle amortization counters, and a label collection — whose
// oracle answers whole chunks — must move them on the first flush.
func TestHTTPMetricsBatchOracle(t *testing.T) {
	svc := New(Config{Shards: 1, BatchSize: 4, Workers: 2})
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	client := ts.Client()
	if st := call(t, client, http.MethodPut, ts.URL+"/v1/collections/b",
		OracleSpec{Kind: KindLabel, Labels: []int{0, 1, 0, 1, 2, 2, 0, 1}}, nil); st != http.StatusCreated {
		t.Fatalf("create status %d", st)
	}
	if st := call(t, client, http.MethodPost, ts.URL+"/v1/collections/b/items?flush=1",
		map[string]any{"items": []int{0, 1, 2, 3, 4, 5, 6, 7}}, nil); st != http.StatusAccepted {
		t.Fatalf("ingest status %d", st)
	}
	resp, err := client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	metrics := string(raw)
	for _, want := range []string{
		"ecsort_oracle_batch_rounds_total ",
		"ecsort_oracle_batch_pairs_total ",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}
	if strings.Contains(metrics, "ecsort_oracle_batch_rounds_total 0\n") {
		t.Fatal("batch rounds stayed zero after a flush over a batch-capable oracle")
	}
	if strings.Contains(metrics, "ecsort_oracle_batch_pairs_total 0\n") {
		t.Fatal("batch pairs stayed zero after a flush over a batch-capable oracle")
	}
}
