package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ecsort/internal/service"
)

// httpCall performs one JSON request and decodes the response into out
// (when non-nil and the status is a success), returning the status.
func httpCall(t *testing.T, client *http.Client, method, url string, payload, out any) int {
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

// TestCoordinatorHTTPWalkthrough drives the full route table of the
// coordinator's HTTP API against a 2-node ChanTransport fleet — the
// README quickstart, as a test.
func TestCoordinatorHTTPWalkthrough(t *testing.T) {
	co, _ := newChanCluster(t, 2, Config{}, service.Config{Shards: 2, BatchSize: 4})
	ts := httptest.NewServer(co.Handler())
	defer ts.Close()
	client := ts.Client()

	spec := service.OracleSpec{Kind: service.KindLabel, Labels: []int{0, 0, 1, 1, 2, 2}}
	var created struct {
		Key      string `json:"key"`
		Kind     string `json:"kind"`
		Universe int    `json:"universe"`
	}
	if code := httpCall(t, client, "PUT", ts.URL+"/v1/collections/demo", spec, &created); code != 201 {
		t.Fatalf("create: status %d", code)
	}
	if created.Key != "demo" || created.Universe != 6 {
		t.Fatalf("create response: %+v", created)
	}
	if code := httpCall(t, client, "PUT", ts.URL+"/v1/collections/demo", spec, nil); code != 409 {
		t.Fatalf("duplicate create: status %d, want 409", code)
	}

	var ing service.IngestResult
	if code := httpCall(t, client, "POST", ts.URL+"/v1/collections/demo/items",
		map[string]any{"items": []int{0, 1, 2, 3, 4, 5}}, &ing); code != 202 {
		t.Fatalf("ingest: status %d", code)
	}
	if !ing.Flushed {
		t.Fatalf("batch of 6 over BatchSize 4 did not flush: %+v", ing)
	}

	var snap service.Snapshot
	if code := httpCall(t, client, "GET", ts.URL+"/v1/collections/demo/classes", nil, &snap); code != 200 {
		t.Fatalf("classes: status %d", code)
	}
	if len(snap.Classes) != 3 {
		t.Fatalf("classes: got %d, want 3: %v", len(snap.Classes), snap.Classes)
	}

	var view service.ClassView
	if code := httpCall(t, client, "GET", ts.URL+"/v1/collections/demo/classes/3", nil, &view); code != 200 {
		t.Fatalf("classOf: status %d", code)
	}
	if len(view.Members) != 2 {
		t.Fatalf("classOf(3): members %v, want the pair", view.Members)
	}

	var churn service.ChurnResult
	if code := httpCall(t, client, "DELETE", ts.URL+"/v1/collections/demo/items/5", nil, &churn); code != 200 {
		t.Fatalf("delete item: status %d", code)
	}
	if code := httpCall(t, client, "POST", ts.URL+"/v1/collections/demo/classes/0/invalidate?flush=1", nil, &churn); code != 202 {
		t.Fatalf("invalidate: status %d", code)
	}

	var stats service.CollectionInfo
	if code := httpCall(t, client, "GET", ts.URL+"/v1/collections/demo/stats", nil, &stats); code != 200 {
		t.Fatalf("stats: status %d", code)
	}
	if stats.Deleted != 1 || stats.Invalidated != 1 {
		t.Fatalf("stats after churn: %+v", stats)
	}

	var listing struct {
		Collections []service.CollectionInfo `json:"collections"`
	}
	if code := httpCall(t, client, "GET", ts.URL+"/v1/collections", nil, &listing); code != 200 {
		t.Fatalf("list: status %d", code)
	}
	if len(listing.Collections) != 1 || listing.Collections[0].Key != "demo" {
		t.Fatalf("list: %+v", listing)
	}

	var algos struct {
		Default    string            `json:"default"`
		Algorithms []json.RawMessage `json:"algorithms"`
	}
	if code := httpCall(t, client, "GET", ts.URL+"/v1/algorithms", nil, &algos); code != 200 {
		t.Fatalf("algorithms: status %d", code)
	}
	if algos.Default == "" || len(algos.Algorithms) == 0 {
		t.Fatalf("algorithms served empty: %+v", algos)
	}

	// Error mapping: unknown key 404 (local route miss), bad element 400,
	// unknown field 400, out-of-universe 400 relayed from the node.
	if code := httpCall(t, client, "GET", ts.URL+"/v1/collections/ghost/stats", nil, nil); code != 404 {
		t.Fatalf("ghost stats: status %d, want 404", code)
	}
	if code := httpCall(t, client, "GET", ts.URL+"/v1/collections/demo/classes/xyz", nil, nil); code != 400 {
		t.Fatalf("non-integer element: status %d, want 400", code)
	}
	if code := httpCall(t, client, "POST", ts.URL+"/v1/collections/demo/items",
		map[string]any{"itemz": []int{1}}, nil); code != 400 {
		t.Fatalf("unknown field: status %d, want 400", code)
	}
	if code := httpCall(t, client, "POST", ts.URL+"/v1/collections/demo/items",
		map[string]any{"items": []int{999}}, nil); code != 400 {
		t.Fatalf("out-of-universe item: status %d, want 400 relayed", code)
	}

	if code := httpCall(t, client, "DELETE", ts.URL+"/v1/collections/demo", nil, nil); code != 204 {
		t.Fatalf("drop: status %d", code)
	}
	if code := httpCall(t, client, "GET", ts.URL+"/v1/collections/demo/stats", nil, nil); code != 404 {
		t.Fatalf("stats after drop: status %d, want 404", code)
	}
}

// TestCoordinatorHTTPResilience drives the PATCH endpoint through the
// coordinator and checks the degraded 503 carries Retry-After.
func TestCoordinatorHTTPResilience(t *testing.T) {
	co, _ := newChanCluster(t, 2, Config{DownCooldown: time.Second}, service.Config{Shards: 1})
	ts := httptest.NewServer(co.Handler())
	defer ts.Close()
	client := ts.Client()

	spec := service.OracleSpec{
		Kind:   service.KindLabel,
		Labels: []int{0, 1, 1},
		Resilience: &service.ResilienceSpec{
			TimeoutMs: 100, Retries: 1, BackoffMs: 1, MaxBackoffMs: 1,
		},
	}
	if code := httpCall(t, client, "PUT", ts.URL+"/v1/collections/tuned", spec, nil); code != 201 {
		t.Fatalf("create: status %d", code)
	}
	var patched struct {
		Key        string                 `json:"key"`
		Resilience service.ResilienceSpec `json:"resilience"`
	}
	update := service.ResilienceSpec{TimeoutMs: 900, Retries: 4, BackoffMs: 2, MaxBackoffMs: 50}
	if code := httpCall(t, client, "PATCH", ts.URL+"/v1/collections/tuned/resilience", update, &patched); code != 200 {
		t.Fatalf("patch: status %d", code)
	}
	if patched.Resilience.Retries != 4 {
		t.Fatalf("patch echo: %+v", patched)
	}
	if code := httpCall(t, client, "PATCH", ts.URL+"/v1/collections/ghost/resilience", update, nil); code != 404 {
		t.Fatalf("patch ghost: status %d, want 404", code)
	}

	// Kill the node owning "tuned": its writes 503 with Retry-After.
	idx, err := co.owner("tuned")
	if err != nil {
		t.Fatal(err)
	}
	co.nodes[idx].t.Close()
	req, _ := http.NewRequest("POST", ts.URL+"/v1/collections/tuned/items", strings.NewReader(`{"items":[0]}`))
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("write to dead node: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After header")
	}
}

// TestCoordinatorHTTPHealthAndMetrics pins the fleet observability
// surface: ready flips to 503 on a node loss, and /metrics names the
// cluster families.
func TestCoordinatorHTTPHealthAndMetrics(t *testing.T) {
	co, _ := newChanCluster(t, 2, Config{DownCooldown: time.Minute}, service.Config{Shards: 1})
	ts := httptest.NewServer(co.Handler())
	defer ts.Close()
	client := ts.Client()

	for _, path := range []string{"/healthz", "/healthz/live"} {
		if code := httpCall(t, client, "GET", ts.URL+path, nil, nil); code != 200 {
			t.Fatalf("%s: status %d", path, code)
		}
	}
	var ready struct {
		Status string      `json:"status"`
		Nodes  []NodeState `json:"nodes"`
	}
	if code := httpCall(t, client, "GET", ts.URL+"/healthz/ready", nil, &ready); code != 200 {
		t.Fatalf("ready with healthy fleet: status %d", code)
	}
	if ready.Status != "ready" || len(ready.Nodes) != 2 {
		t.Fatalf("ready report: %+v", ready)
	}

	resp, err := client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, family := range []string{
		"ecsort_cluster_nodes 2",
		"ecsort_cluster_collections",
		`ecsort_cluster_node_up{node="node-0"} 1`,
		`ecsort_cluster_node_up{node="node-1"} 1`,
		"ecsort_cluster_routed_total",
		"ecsort_cluster_route_errors_total",
		"ecsort_cluster_heavy_placements_total",
	} {
		if !strings.Contains(string(raw), family) {
			t.Errorf("metrics missing %q", family)
		}
	}

	// One node down: ready degrades to 503 but still reports both nodes,
	// and node_up flips for exactly the dead one.
	co.nodes[1].t.Close()
	co.nodes[1].markDown(io.ErrClosedPipe, time.Minute)
	code := httpCall(t, client, "GET", ts.URL+"/healthz/ready", nil, nil)
	if code != 503 {
		t.Fatalf("ready with dead node: status %d, want 503", code)
	}
	resp, err = client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(raw), `ecsort_cluster_node_up{node="node-1"} 0`) {
		t.Error("metrics did not flip node_up for the dead node")
	}
	if !strings.Contains(string(raw), `ecsort_cluster_node_up{node="node-0"} 1`) {
		t.Error("metrics took the live node down with the dead one")
	}
}

// TestFleetProbesNotRouted: the coordinator's own fleet probes — the
// health poll behind /metrics and /healthz/ready and the listing behind
// GET /v1/collections — are not requests routed to a node, so they leave
// ecsort_cluster_routed_total at 0; a create and an ingest count once
// each, on the owner only.
func TestFleetProbesNotRouted(t *testing.T) {
	co, _ := newChanCluster(t, 2, Config{}, service.Config{Shards: 1})
	h := co.Handler()
	get := func(path string) string {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
		return w.Body.String()
	}
	check := func(when string, want [2]int) {
		t.Helper()
		body := get("/metrics")
		for i, n := range want {
			line := fmt.Sprintf("ecsort_cluster_routed_total{node=\"node-%d\"} %d\n", i, n)
			if !strings.Contains(body, line) {
				t.Errorf("%s: /metrics lacks %q:\n%s", when, line, body)
			}
		}
	}
	for range 3 {
		for _, path := range []string{"/metrics", "/healthz/ready", "/v1/collections"} {
			get(path)
		}
	}
	check("after 3 rounds of probes", [2]int{0, 0})

	ctx := context.Background()
	cl := service.NewClient(co)
	if _, err := cl.CreateCollection(ctx, "k", service.OracleSpec{Kind: service.KindLabel, Labels: []int{0, 1, 0}}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Ingest(ctx, "k", []int{0, 1}, false); err != nil {
		t.Fatal(err)
	}
	owner, err := co.owner("k")
	if err != nil {
		t.Fatal(err)
	}
	var want [2]int
	want[owner] = 2
	check("after a create and an ingest", want)

	// A request rejected during the owner's down cooldown never reaches it.
	co.nodes[owner].markDown(errors.New("test: node down"), time.Minute)
	var de *service.DegradedError
	if _, err := cl.Ingest(ctx, "k", []int{2}, false); !errors.As(err, &de) {
		t.Fatalf("ingest to a down owner: err = %v, want DegradedError", err)
	}
	check("after an ingest rejected in cooldown", want)
}

// blockingWriter is a ResponseWriter whose Write blocks on the first
// chunk that starts with prefix until release is closed, as a client
// that stops reading does.
type blockingWriter struct {
	prefix  string
	once    sync.Once
	blocked chan struct{}
	release chan struct{}
}

func (w *blockingWriter) Header() http.Header { return http.Header{} }
func (w *blockingWriter) WriteHeader(int)     {}
func (w *blockingWriter) Write(p []byte) (int, error) {
	if strings.HasPrefix(string(p), w.prefix) {
		w.once.Do(func() { close(w.blocked) })
		<-w.release
	}
	return len(p), nil
}

// TestCoordinatorMetricsSlowWriter: a /metrics reader that stops
// reading mid-body must not hold the route lock, so a concurrent create
// (which takes it exclusively) still completes.
func TestCoordinatorMetricsSlowWriter(t *testing.T) {
	co, _ := newChanCluster(t, 1, Config{}, service.Config{Shards: 1})
	w := &blockingWriter{prefix: "ecsort_cluster_collections", blocked: make(chan struct{}), release: make(chan struct{})}
	served := make(chan struct{})
	go func() {
		defer close(served)
		co.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
	}()
	<-w.blocked

	created := make(chan error, 1)
	go func() {
		_, err := service.NewClient(co).CreateCollection(context.Background(), "k", service.OracleSpec{Kind: service.KindLabel, Labels: []int{0, 1}})
		created <- err
	}()
	select {
	case err := <-created:
		if err != nil {
			t.Errorf("create: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Error("create waited on a /metrics writer blocked mid-body")
		close(w.release)
		<-created
		<-served
		return
	}
	close(w.release)
	<-served
}

// TestCoordinatorHTTPCanceledRequest: a request whose client goes away
// mid-call gets the status the service's table gives context.Canceled,
// 503, like a single node — not a 500 — and the node stays up: the next
// request is served and health reports the node ready.
func TestCoordinatorHTTPCanceledRequest(t *testing.T) {
	svc := service.New(service.Config{Shards: 1})
	defer svc.Close()
	node := NewNode(svc)
	node.SetLogger(testLogf(t))
	co, err := New(Config{}, []Backend{{Name: "n", Transport: &ctxErrTransport{inner: NewChanTransport(node)}}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer co.Close()
	ctx := context.Background()
	if _, err := service.NewClient(co).CreateCollection(ctx, "x", service.OracleSpec{Kind: service.KindLabel, Labels: []int{0, 0, 1}}); err != nil {
		t.Fatal(err)
	}
	h := co.Handler()

	canceled, cancel := context.WithCancel(ctx)
	cancel()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/collections/x/items", strings.NewReader(`{"items":[0]}`)).WithContext(canceled))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("canceled request: status %d, want 503: %s", w.Code, w.Body.Bytes())
	}
	if want := "{\n  \"error\": \"context canceled\"\n}\n"; w.Body.String() != want {
		t.Fatalf("canceled request body %q, want %q", w.Body.String(), want)
	}

	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/collections/x/items?flush=1", strings.NewReader(`{"items":[0,1,2]}`)))
	if w.Code != http.StatusAccepted {
		t.Fatalf("request after the canceled one: status %d, want 202: %s", w.Code, w.Body.Bytes())
	}
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/healthz/ready", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("ready after a canceled request: status %d, want 200: %s", w.Code, w.Body.Bytes())
	}
}
