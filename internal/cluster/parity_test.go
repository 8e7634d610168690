package cluster

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ecsort/internal/service"
)

// parityStep is one HTTP request of the byte-parity sequence, with the
// status the single-node control must answer.
type parityStep struct {
	method, path, body string
	status             int
}

// paritySequence builds the fixed-seed request sequence the byte-parity
// test replays: per collection, a create, the requests the route table
// refuses with 400 before any executor runs (non-integer path elements
// and classes, malformed ingest bodies, unknown fields in a create or
// a resilience PATCH), uneven ingests with and without ?flush=1, the
// node-originated errors (class-of of a pending element and of an
// out-of-universe one, delete of an element never ingested), then
// deletes, invalidations with and without ?flush=1, classes plain and
// fresh, class-of plain and fresh, and stats; then a resilient
// collection's PATCH, a PATCH the node refuses, and a drop.
func paritySequence(seed int64) []parityStep {
	rng := rand.New(rand.NewSource(seed))
	var steps []parityStep
	add := func(method, path, body string, status int) {
		steps = append(steps, parityStep{method, path, body, status})
	}
	items := func(xs []int) string {
		parts := make([]string, len(xs))
		for i, x := range xs {
			parts[i] = fmt.Sprint(x)
		}
		return `{"items":[` + strings.Join(parts, ",") + `]}`
	}
	for c, n := range []int{300, 170, 90} {
		key := fmt.Sprintf("/v1/collections/par-%d", c)
		labels := make([]string, n)
		for i := range labels {
			// Skewed classes: one giant, a few mid-sized, a singleton tail.
			l := 0
			switch r := rng.Intn(10); {
			case r >= 8:
				l = 100 + rng.Intn(n)
			case r >= 5:
				l = 1 + rng.Intn(6)
			}
			labels[i] = fmt.Sprint(l)
		}
		add("PUT", key, `{"kind":"label","labels":[`+strings.Join(labels, ",")+`]}`, http.StatusCreated)

		add("GET", key+"/classes/abc", "", http.StatusBadRequest)
		add("DELETE", key+"/items/abc", "", http.StatusBadRequest)
		add("POST", key+"/classes/x/invalidate", "", http.StatusBadRequest)
		add("POST", key+"/items", `{"items":[0,"x"]}`, http.StatusBadRequest)
		add("POST", key+"/items", `{"items":[1.5]}`, http.StatusBadRequest)
		add("POST", key+"/items", `{"itemz":[0]}`, http.StatusBadRequest)
		add("PUT", key+"-typo", `{"kind":"label","labels":[0,1],"lables":[0]}`, http.StatusBadRequest)
		add("PATCH", key+"/resilience", `{"votes":3,"vote":1}`, http.StatusBadRequest)

		// Ingest all but the last 10 elements of a shuffled order; the
		// final batch of 5 stays pending and the last 5 are never ingested.
		order := rng.Perm(n)
		ingest, pending, absent := order[:n-10], order[n-10:n-5], order[n-5:]
		for i := 0; len(ingest) > 0; i++ {
			sz := min(1+rng.Intn(40), len(ingest))
			path := key + "/items"
			if i%3 == 2 {
				path += "?flush=1"
			}
			add("POST", path, items(ingest[:sz]), http.StatusAccepted)
			ingest = ingest[sz:]
		}
		add("POST", key+"/items?flush=1", items(nil), http.StatusAccepted)
		add("POST", key+"/items", items(pending), http.StatusAccepted)

		add("GET", fmt.Sprintf("%s/classes/%d", key, pending[0]), "", http.StatusNotFound)
		add("GET", fmt.Sprintf("%s/classes/%d", key, n+3), "", http.StatusBadRequest)
		add("DELETE", fmt.Sprintf("%s/items/%d", key, absent[0]), "", http.StatusNotFound)
		add("DELETE", fmt.Sprintf("%s/items/%d", key, order[0]), "", http.StatusOK)
		add("DELETE", fmt.Sprintf("%s/items/%d", key, pending[1]), "", http.StatusOK)
		add("GET", fmt.Sprintf("%s/classes/%d", key, order[1]), "", http.StatusOK)
		add("POST", key+"/classes/0/invalidate", "", http.StatusAccepted)
		add("GET", key+"/classes", "", http.StatusOK)
		add("POST", key+"/classes/1/invalidate?flush=1", "", http.StatusAccepted)
		add("GET", key+"/classes?fresh=1", "", http.StatusOK)
		add("GET", fmt.Sprintf("%s/classes/%d?fresh=1", key, pending[2]), "", http.StatusOK)
		add("GET", fmt.Sprintf("%s/classes/%d", key, order[2]), "", http.StatusOK)
		add("GET", key+"/stats", "", http.StatusOK)
	}
	// The resilience PATCH and the drop, whose bodies the executor
	// builds: an echo of the new profile, and a bare 204.
	res := "/v1/collections/par-res"
	add("PUT", res, `{"kind":"label","labels":[0,1,1],"resilience":{"timeout_ms":500}}`, http.StatusCreated)
	add("PATCH", res+"/resilience", `{"timeout_ms":900,"retries":3}`, http.StatusOK)
	add("PATCH", "/v1/collections/par-0/resilience", `{"retries":3}`, http.StatusBadRequest)
	add("DELETE", res, "", http.StatusNoContent)
	add("GET", res+"/stats", "", http.StatusNotFound)
	return steps
}

// TestHTTPByteParity replays one fixed-seed request sequence through a
// single-node service.Handler() and through Coordinator.Handler() over
// ChanTransport and over TCPTransport: every response must carry the
// same status, Content-Type and body bytes. The coordinator relays the
// node's body unread, so this pins the relay, not just the decoded
// values the transport-equivalence test compares.
func TestHTTPByteParity(t *testing.T) {
	svcCfg := service.Config{Shards: 2, BatchSize: 64}
	control := service.New(svcCfg)
	defer control.Close()
	chanCo, _ := newChanCluster(t, 3, Config{}, svcCfg)
	tcpCo, _, _ := newTCPCluster(t, 3, Config{}, svcCfg)
	arms := []struct {
		name string
		h    http.Handler
	}{
		{"chan", chanCo.Handler()},
		{"tcp", tcpCo.Handler()},
	}
	ctrl := control.Handler()

	serve := func(h http.Handler, st parityStep) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(st.method, st.path, strings.NewReader(st.body)))
		return w
	}
	steps := paritySequence(7)
	for i, st := range steps {
		want := serve(ctrl, st)
		if want.Code != st.status {
			t.Fatalf("step %d %s %s: control answered %d, want %d: %s",
				i, st.method, st.path, want.Code, st.status, want.Body.Bytes())
		}
		for _, arm := range arms {
			got := serve(arm.h, st)
			if got.Code != want.Code {
				t.Fatalf("step %d %s %s: %s cluster status %d, control %d: %s",
					i, st.method, st.path, arm.name, got.Code, want.Code, got.Body.Bytes())
			}
			if g, w := got.Header().Get("Content-Type"), want.Header().Get("Content-Type"); g != w {
				t.Fatalf("step %d %s %s: %s cluster Content-Type %q, control %q",
					i, st.method, st.path, arm.name, g, w)
			}
			if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
				t.Fatalf("step %d %s %s: %s cluster body differs from control:\n cluster: %q\n control: %q",
					i, st.method, st.path, arm.name, got.Body.Bytes(), want.Body.Bytes())
			}
		}
	}
	t.Logf("%d requests byte-identical across control, chan and tcp", len(steps))
}
