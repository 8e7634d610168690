package cluster

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"ecsort/internal/service"
)

// requestRecorder is an Executor that keeps, for every request the route
// table parses, the wire payload a coordinator would send for it.
type requestRecorder struct{ reqs [][]byte }

func (r *requestRecorder) Do(_ context.Context, dst []byte, o service.Op, key string, a service.Args) ([]byte, error) {
	req, err := encodeRequest(nil, op(o), key, a)
	if err != nil {
		return nil, err
	}
	r.reqs = append(r.reqs, req)
	return dst, nil
}

// fuzzable keeps a fuzzed create inside the fuzzer's time and memory
// budget: small label or fault universes on the incremental engine,
// without injected faults or a resilience profile (an injected latency
// or a huge vote count could stall a fold).
func fuzzable(spec *service.OracleSpec) bool {
	return spec.N() <= 512 && len(spec.Graphs) == 0 && spec.Faults == nil && spec.Resilience == nil &&
		(spec.Algorithm == "" || spec.Algorithm == service.AlgorithmIncremental)
}

// sameArgs compares decoded args, specs by their JSON (a decoded empty
// list and an absent one encode alike).
func sameArgs(a, b service.Args) bool {
	js := func(v any) string {
		out, _ := json.Marshal(v)
		return string(out)
	}
	return reflect.DeepEqual(a.Items, b.Items) && a.Element == b.Element && a.Flush == b.Flush &&
		js(a.Spec) == js(b.Spec) && js(a.Resilience) == js(b.Resilience)
}

// FuzzNodeHandle feeds arbitrary request payloads — the bytes a node
// reads off the network — to Node.Handle. Handle must never panic and
// must answer with a response decodeResponse accepts; a payload that
// decodes must hold no more items than its length allows and must
// round-trip through encodeRequest. The seeds are the parity sequence's
// requests as the route table parses them, the fleet ops, and forged
// item counts.
func FuzzNodeHandle(f *testing.F) {
	rec := &requestRecorder{}
	mux := http.NewServeMux()
	service.Routes(mux, rec)
	for _, st := range paritySequence(7) {
		mux.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(st.method, st.path, strings.NewReader(st.body)))
	}
	for _, req := range rec.reqs {
		f.Add(req)
	}
	for _, o := range []op{opList, opHealth} {
		req, _ := encodeRequest(nil, o, "", service.Args{})
		f.Add(req)
	}
	f.Add(binary.AppendUvarint([]byte{byte(service.OpIngest), 5, 'p', 'a', 'r', '-', '0', 0, 0}, 1<<62))
	f.Add([]byte{byte(service.OpIngest), 5, 'p', 'a', 'r', '-', '0', 1, 0, 3, 2})

	svc := service.New(service.Config{Shards: 1, Workers: 1, BatchSize: 4})
	f.Cleanup(svc.Close)
	node := NewNode(svc)
	node.SetLogger(func(string, ...any) {})
	f.Fuzz(func(t *testing.T, req []byte) {
		o, key, a, err := decodeRequest(req)
		if err == nil {
			if cap(a.Items) > len(req) {
				t.Fatalf("a %d-byte payload decoded into %d items of capacity", len(req), cap(a.Items))
			}
			again, err := encodeRequest(nil, o, key, a)
			if err != nil {
				t.Fatalf("decoded args do not re-encode: %v", err)
			}
			o2, key2, a2, err := decodeRequest(again)
			if err != nil || o2 != o || key2 != key || !sameArgs(a, a2) {
				t.Fatalf("args did not round-trip: %d %q %+v -> %d %q %+v (%v)", o, key, a, o2, key2, a2, err)
			}
			if a.Spec != nil && !fuzzable(a.Spec) {
				return
			}
		}
		if _, err := decodeResponse(node.Handle(req)); err != nil {
			var re *RemoteError
			if !errors.As(err, &re) {
				t.Fatalf("Handle answered an undecodable response: %v", err)
			}
		}
	})
}
