package service

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"ecsort/internal/core"
	"ecsort/internal/model"
	"ecsort/internal/oracle"
)

func TestSpecBuild(t *testing.T) {
	cases := []struct {
		name string
		spec OracleSpec
		ok   bool
	}{
		{"label", OracleSpec{Kind: KindLabel, Labels: []int{0, 1, 0}}, true},
		{"handshake", OracleSpec{Kind: KindHandshake, Labels: []int{0, 1}, Seed: 7}, true},
		{"handshake-agents", OracleSpec{Kind: KindHandshakeAgents, Labels: []int{0, 0, 1}, Seed: 7}, true},
		{"fault", OracleSpec{Kind: KindFault, States: []uint64{1, 2, 1}}, true},
		{"fault-agents", OracleSpec{Kind: KindFaultAgents, States: []uint64{3, 3}}, true},
		{"graph-iso", OracleSpec{Kind: KindGraphIso, Graphs: []GraphSpec{
			{N: 3, Edges: [][2]int{{0, 1}, {1, 2}}},
			{N: 3, Edges: [][2]int{{2, 1}, {1, 0}}},
			{N: 3, Edges: [][2]int{{0, 1}, {1, 2}, {2, 0}}},
		}}, true},
		{"unknown kind", OracleSpec{Kind: "nope", Labels: []int{0}}, false},
		{"empty universe", OracleSpec{Kind: KindLabel}, false},
		{"label kind with states only", OracleSpec{Kind: KindLabel, Labels: nil, States: []uint64{1}}, false},
		{"graph edge out of range", OracleSpec{Kind: KindGraphIso, Graphs: []GraphSpec{{N: 2, Edges: [][2]int{{0, 2}}}}}, false},
		{"graph self loop", OracleSpec{Kind: KindGraphIso, Graphs: []GraphSpec{{N: 2, Edges: [][2]int{{1, 1}}}}}, false},
		{"graph duplicate edge", OracleSpec{Kind: KindGraphIso, Graphs: []GraphSpec{{N: 2, Edges: [][2]int{{0, 1}, {1, 0}}}}}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o, err := tc.spec.Build()
			if tc.ok {
				if err != nil {
					t.Fatalf("Build: %v", err)
				}
				if o.N() != tc.spec.N() {
					t.Fatalf("N = %d, want %d", o.N(), tc.spec.N())
				}
			} else if err == nil {
				t.Fatal("Build accepted a bad spec")
			}
		})
	}
}

// TestSpecOracleAgreement: every kind's oracle must realize the same
// partition as the plain label oracle it was derived from.
func TestSpecOracleAgreement(t *testing.T) {
	labels := []int{0, 1, 0, 2, 1, 2, 0}
	states := []uint64{9, 4, 9, 7, 4, 7, 9}
	g := func(edges ...[2]int) GraphSpec { return GraphSpec{N: 4, Edges: edges} }
	// Three isomorphism classes matching labels: 0 = path on 4 vertices,
	// 1 = triangle plus isolated vertex, 2 = star.
	graphs := []GraphSpec{
		g([2]int{0, 1}, [2]int{1, 2}, [2]int{2, 3}), // path
		g([2]int{0, 1}, [2]int{1, 2}, [2]int{2, 0}), // triangle + isolated 3
		g([2]int{3, 2}, [2]int{2, 1}, [2]int{1, 0}), // path, relabeled
		g([2]int{0, 1}, [2]int{0, 2}, [2]int{0, 3}), // star, center 0
		g([2]int{1, 3}, [2]int{3, 2}, [2]int{2, 1}), // triangle + isolated 0
		g([2]int{2, 0}, [2]int{2, 1}, [2]int{2, 3}), // star, center 2
		g([2]int{2, 0}, [2]int{0, 3}, [2]int{3, 1}), // path 2-0-3-1
	}
	want := oracle.NewLabel(labels)
	for _, spec := range []OracleSpec{
		{Kind: KindHandshake, Labels: labels, Seed: 11},
		{Kind: KindHandshakeAgents, Labels: labels, Seed: 11},
		{Kind: KindFault, States: states},
		{Kind: KindFaultAgents, States: states},
		{Kind: KindGraphIso, Graphs: graphs},
	} {
		t.Run(spec.Kind, func(t *testing.T) {
			o, err := spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < len(labels); i++ {
				for j := i + 1; j < len(labels); j++ {
					if got := o.Same(i, j); got != want.Same(i, j) {
						t.Fatalf("Same(%d,%d) = %v, want %v", i, j, got, want.Same(i, j))
					}
				}
			}
		})
	}
}

func TestServiceLifecycle(t *testing.T) {
	svc := New(Config{Shards: 2})
	defer svc.Close()

	spec := OracleSpec{Kind: KindLabel, Labels: []int{0, 1, 0, 1}}
	if err := svc.CreateCollection("a", spec); err != nil {
		t.Fatal(err)
	}
	if err := svc.CreateCollection("a", spec); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate create: %v", err)
	}
	if err := svc.CreateCollection("", spec); err == nil {
		t.Fatal("empty key accepted")
	}
	if _, err := svc.Ingest("missing", []int{0}, false); !errors.Is(err, ErrNotFound) {
		t.Fatalf("ingest into missing: %v", err)
	}
	if _, err := svc.Classes("missing", false); !errors.Is(err, ErrNotFound) {
		t.Fatalf("classes of missing: %v", err)
	}

	res, err := svc.Ingest("a", []int{0, 1, 2, 3}, false)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Flushed || res.Accepted != 4 || res.Pending != 0 || res.Version != 1 {
		t.Fatalf("ingest result = %+v", res)
	}
	snap, err := svc.Classes("a", false)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Classes) != 2 || snap.Size != 4 {
		t.Fatalf("snapshot = %+v", snap)
	}

	if err := svc.DropCollection("a"); err != nil {
		t.Fatal(err)
	}
	if err := svc.DropCollection("a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double drop: %v", err)
	}

	svc.Close()
	if err := svc.CreateCollection("b", spec); !errors.Is(err, ErrClosed) {
		t.Fatalf("create after close: %v", err)
	}
	svc.Close() // idempotent
}

func TestIngestAtomicRejection(t *testing.T) {
	svc := New(Config{Shards: 1})
	defer svc.Close()
	if err := svc.CreateCollection("a", OracleSpec{Kind: KindLabel, Labels: []int{0, 0, 1, 1}}); err != nil {
		t.Fatal(err)
	}
	for _, items := range [][]int{
		{0, 4},    // out of range
		{0, -1},   // negative
		{1, 2, 1}, // duplicate within batch
	} {
		if _, err := svc.Ingest("a", items, false); !errors.Is(err, ErrBadItem) {
			t.Fatalf("items %v: err = %v", items, err)
		}
	}
	// Nothing from the rejected batches may have stuck: 0 is still free.
	if res, err := svc.Ingest("a", []int{0, 1}, false); err != nil || res.Accepted != 2 {
		t.Fatalf("clean ingest after rejections: %+v, %v", res, err)
	}
	// Cross-batch duplicate.
	if _, err := svc.Ingest("a", []int{1, 2}, false); !errors.Is(err, ErrBadItem) {
		t.Fatal("cross-batch duplicate accepted")
	}
	snap, err := svc.Classes("a", true)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Size != 2 {
		t.Fatalf("size = %d after atomic rejections, want 2", snap.Size)
	}
}

// TestBatchingPolicy: with BatchSize B, flushes happen only when the
// buffer reaches B (or on a fresh read), and each flush costs one
// compounding group — visible as a version bump.
func TestBatchingPolicy(t *testing.T) {
	svc := New(Config{Shards: 1, BatchSize: 6})
	defer svc.Close()
	labels := make([]int, 32)
	for i := range labels {
		labels[i] = i % 4
	}
	if err := svc.CreateCollection("a", OracleSpec{Kind: KindLabel, Labels: labels}); err != nil {
		t.Fatal(err)
	}
	res, err := svc.Ingest("a", []int{0, 1, 2}, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Flushed || res.Pending != 3 || res.Version != 0 {
		t.Fatalf("first batch: %+v", res)
	}
	// Snapshot still empty: reads don't see pending elements.
	snap, _ := svc.Classes("a", false)
	if snap.Size != 0 || snap.Version != 0 {
		t.Fatalf("stale snapshot = %+v", snap)
	}
	res, err = svc.Ingest("a", []int{3, 4, 5}, false)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Flushed || res.Pending != 0 || res.Version != 1 {
		t.Fatalf("threshold batch: %+v", res)
	}
	// Force-flush flag flushes a sub-threshold batch.
	res, err = svc.Ingest("a", []int{6}, true)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Flushed || res.Version != 2 {
		t.Fatalf("forced batch: %+v", res)
	}
	// Fresh read flushes the remainder.
	if _, err := svc.Ingest("a", []int{7, 8}, false); err != nil {
		t.Fatal(err)
	}
	snap, err = svc.Classes("a", true)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version != 3 || snap.Size != 9 {
		t.Fatalf("fresh snapshot = %+v", snap)
	}
}

func TestFlushIntervalBoundsStaleness(t *testing.T) {
	svc := New(Config{Shards: 1, BatchSize: 1 << 20, FlushInterval: 5 * time.Millisecond})
	defer svc.Close()
	if err := svc.CreateCollection("a", OracleSpec{Kind: KindLabel, Labels: []int{0, 1, 0, 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Ingest("a", []int{0, 1, 2}, false); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		snap, err := svc.Classes("a", false)
		if err != nil {
			t.Fatal(err)
		}
		if snap.Size == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("ticker flush never published the pending elements")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestConcurrentCollections is the sharding contract: many goroutines
// ingesting into many collections concurrently, every final answer
// exactly the batch SortCR partition of what was ingested.
func TestConcurrentCollections(t *testing.T) {
	svc := New(Config{Shards: 4, BatchSize: 16})
	defer svc.Close()
	const (
		collections = 12
		n           = 200
		k           = 7
	)
	rng := rand.New(rand.NewSource(42))
	truths := make([]*oracle.Label, collections)
	orders := make([][]int, collections)
	for i := range truths {
		truths[i] = oracle.RandomBalanced(n, k, rng)
		orders[i] = rng.Perm(n)
		key := fmt.Sprintf("col-%d", i)
		if err := svc.CreateCollection(key, OracleSpec{Kind: KindLabel, Labels: truths[i].Labels()}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errCh := make(chan error, collections)
	for i := 0; i < collections; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("col-%d", i)
			for lo := 0; lo < n; lo += 13 {
				hi := min(lo+13, n)
				if _, err := svc.Ingest(key, orders[i][lo:hi], false); err != nil {
					errCh <- fmt.Errorf("%s: %w", key, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	for i := 0; i < collections; i++ {
		key := fmt.Sprintf("col-%d", i)
		snap, err := svc.Classes(key, true)
		if err != nil {
			t.Fatal(err)
		}
		batch, err := core.SortCR(model.NewSession(truths[i], model.CR), k)
		if err != nil {
			t.Fatal(err)
		}
		got := core.Result{Classes: snap.Classes}
		if !core.SameClassification(got.Labels(n), batch.Labels(n)) {
			t.Fatalf("%s: service partition differs from batch SortCR", key)
		}
	}
}

// TestSnapshotImmutable: a held snapshot must not change under later
// ingestion.
func TestSnapshotImmutable(t *testing.T) {
	svc := New(Config{Shards: 1})
	defer svc.Close()
	labels := []int{0, 0, 1, 1, 2, 2}
	if err := svc.CreateCollection("a", OracleSpec{Kind: KindLabel, Labels: labels}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Ingest("a", []int{0, 2}, false); err != nil {
		t.Fatal(err)
	}
	snap, _ := svc.Classes("a", false)
	classesBefore := fmt.Sprint(snap.Classes)
	if _, err := svc.Ingest("a", []int{1, 3, 4, 5}, false); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(snap.Classes); got != classesBefore {
		t.Fatalf("held snapshot mutated: %s -> %s", classesBefore, got)
	}
	fresh, _ := svc.Classes("a", false)
	if fresh.Size != 6 {
		t.Fatalf("fresh snapshot size = %d", fresh.Size)
	}
}

func TestCollectionsListingAndStats(t *testing.T) {
	svc := New(Config{Shards: 3})
	defer svc.Close()
	for _, key := range []string{"zeta", "alpha", "mid"} {
		if err := svc.CreateCollection(key, OracleSpec{Kind: KindLabel, Labels: []int{0, 1}}); err != nil {
			t.Fatal(err)
		}
	}
	infos := svc.Collections()
	if len(infos) != 3 {
		t.Fatalf("Collections = %v", infos)
	}
	for i, want := range []string{"alpha", "mid", "zeta"} {
		if infos[i].Key != want {
			t.Fatalf("listing order = %v", infos)
		}
	}
	if _, err := svc.Ingest("alpha", []int{1, 0}, false); err != nil {
		t.Fatal(err)
	}
	info, err := svc.CollectionStats("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if info.Ingested != 2 || info.Batches != 1 || info.Flushes != 1 || info.Classes != 2 || info.Universe != 2 {
		t.Fatalf("info = %+v", info)
	}
	if info.Snapshot == nil || info.Snapshot.Stats.Comparisons == 0 {
		t.Fatalf("stats snapshot = %+v", info.Snapshot)
	}
}

// TestNegativeWorkersPanics: the service boundary must reject a negative
// pool width as loudly as the model layer does.
func TestNegativeWorkersPanics(t *testing.T) {
	defer func() {
		r := recover()
		err, ok := r.(error)
		if !ok || !errors.Is(err, model.ErrBadWorkers) {
			t.Errorf("New(Config{Workers: -1}) panicked with %v, want model.ErrBadWorkers", r)
		}
	}()
	New(Config{Workers: -1})
	t.Error("New(Config{Workers: -1}) did not panic")
}
