package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"ecsort/internal/dist"
	"ecsort/internal/service"
)

// BenchmarkClusterIngest measures coordinator-routed ingest over
// ChanTransport, 1 node vs 4: each iteration creates a collection,
// streams its universe through in batches, reads the classes fresh, and
// drops it — the single-collection service benchmark with the wire
// round trip (encode → channel → decode) layered on. Node count shifts
// routing, not total work, so the two sizes should track each other;
// the benchcmp gate holds the per-op allocation line. One untimed
// iteration warms the coordinator and nodes first, so even CI's
// -benchtime 1x run reports the steady state.
func BenchmarkClusterIngest(b *testing.B) {
	labels := make([]int, 1024)
	for i := range labels {
		labels[i] = i % 16
	}
	for _, nodes := range []int{1, 4} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			svcs := make([]*service.Service, nodes)
			backends := make([]Backend, nodes)
			for i := range svcs {
				svcs[i] = service.New(service.Config{Shards: 1, BatchSize: 256, Workers: 1})
				node := NewNode(svcs[i])
				node.SetLogger(func(string, ...any) {})
				backends[i] = Backend{Name: fmt.Sprintf("n%d", i), Transport: NewChanTransport(node)}
			}
			co, err := New(Config{}, backends)
			if err != nil {
				b.Fatal(err)
			}
			cl := service.NewClient(co)
			defer func() {
				co.Close()
				for _, s := range svcs {
					s.Close()
				}
			}()

			ctx := context.Background()
			batch := make([]int, 64)
			run := func(key string) {
				if _, err := cl.CreateCollection(ctx, key, service.OracleSpec{Kind: service.KindLabel, Labels: labels}); err != nil {
					b.Fatal(err)
				}
				for lo := 0; lo < len(labels); lo += len(batch) {
					for j := range batch {
						batch[j] = lo + j
					}
					if _, err := cl.Ingest(ctx, key, batch, false); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := cl.Classes(ctx, key, true); err != nil {
					b.Fatal(err)
				}
				if err := cl.DropCollection(ctx, key); err != nil {
					b.Fatal(err)
				}
			}
			run("warm")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run(fmt.Sprintf("bench-%d", i))
			}
		})
	}
}

// benchResponse is a reusable http.ResponseWriter that keeps only the
// status, so a benchmark times the handler and nothing else.
type benchResponse struct {
	hdr    http.Header
	status int
}

func (w *benchResponse) Header() http.Header         { return w.hdr }
func (w *benchResponse) WriteHeader(status int)      { w.status = status }
func (w *benchResponse) Write(p []byte) (int, error) { return len(p), nil }

// BenchmarkCoordinatorRead measures the coordinator's read path through
// Coordinator.Handler() over ChanTransport on one 1024-element
// collection with zeta(2) class sizes: class-of a member of its largest
// class (628 members), and the whole partition. The node encodes each
// reply once and the coordinator writes those bytes unread, so allocs/op
// holds the relay's per-read cost. The single-node arms serve the same
// two reads from the node's own service.Handler(): the shared route
// table over the local executor, the path a single-node deployment
// serves. One untimed request warms each path.
func BenchmarkCoordinatorRead(b *testing.B) {
	svc := service.New(service.Config{Shards: 1, Workers: 1})
	node := NewNode(svc)
	node.SetLogger(func(string, ...any) {})
	co, err := New(Config{}, []Backend{{Name: "n0", Transport: NewChanTransport(node)}})
	if err != nil {
		b.Fatal(err)
	}
	cl := service.NewClient(co)
	defer func() {
		co.Close()
		svc.Close()
	}()
	ctx := context.Background()
	labels := dist.Labels(dist.NewZeta(2), 1024, rand.New(rand.NewSource(1)))
	if _, err := cl.CreateCollection(ctx, "zeta", service.OracleSpec{Kind: service.KindLabel, Labels: labels}); err != nil {
		b.Fatal(err)
	}
	items := make([]int, len(labels))
	for i := range items {
		items[i] = i
	}
	if _, err := cl.Ingest(ctx, "zeta", items, true); err != nil {
		b.Fatal(err)
	}
	snap, err := cl.Classes(ctx, "zeta", false)
	if err != nil {
		b.Fatal(err)
	}
	largest := snap.Classes[0]
	for _, class := range snap.Classes {
		if len(class) > len(largest) {
			largest = class
		}
	}

	coordinator, single := co.Handler(), svc.Handler()
	classOf := fmt.Sprintf("/v1/collections/zeta/classes/%d", largest[0])
	for _, bc := range []struct {
		name, path string
		h          http.Handler
	}{
		{"class-of", classOf, coordinator},
		{"classes", "/v1/collections/zeta/classes", coordinator},
		{"single-node-class-of", classOf, single},
		{"single-node-classes", "/v1/collections/zeta/classes", single},
	} {
		b.Run(bc.name, func(b *testing.B) {
			h := bc.h
			req := httptest.NewRequest("GET", bc.path, nil)
			w := &benchResponse{hdr: make(http.Header)}
			h.ServeHTTP(w, req)
			if w.status != http.StatusOK {
				b.Fatalf("GET %s: status %d", bc.path, w.status)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.ServeHTTP(w, req)
			}
		})
	}
}
