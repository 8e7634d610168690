package ecsort

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestSortRecordsRegimenPartitionAndCost runs every deterministic
// regimen on one instance: each must record its registry name, produce
// the true partition, pass certification, and charge comparisons.
func TestSortRecordsRegimenPartitionAndCost(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	labels := SampleLabels(NewUniform(5), 300, rng)
	o := NewLabelOracle(labels)
	ctx := context.Background()

	for _, tc := range []struct {
		name string
		alg  Algorithm
	}{
		{"cr", CR(5)},
		{"cr-unknown-k", CRUnknownK()},
		{"er", ER()},
		{"round-robin", RoundRobin()},
		{"naive", Naive()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Sort(ctx, o, tc.alg, Config{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Algorithm != tc.name {
				t.Errorf("Result.Algorithm = %q", res.Algorithm)
			}
			if !SameClassification(res.Labels(300), labels) {
				t.Error("wrong classification")
			}
			if err := Certify(o, res.Classes, Config{}); err != nil {
				t.Errorf("certificate rejected: %v", err)
			}
			if res.Stats.Comparisons == 0 {
				t.Error("zero comparisons recorded")
			}
		})
	}
}

// TestAutoFacade: the planner is reachable from the facade, records its
// choice, and the choice certifies.
func TestAutoFacade(t *testing.T) {
	labels := make([]int, 200)
	for i := range labels {
		labels[i] = i % 4
	}
	o := NewLabelOracle(labels)
	res, err := Sort(context.Background(), o, Auto(Hints{Lambda: 0.2, Seed: 5}), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != "const-round-er" {
		t.Errorf("Auto chose %q, want const-round-er", res.Algorithm)
	}
	if err := Certify(o, res.Classes, Config{}); err != nil {
		t.Fatalf("certificate rejected: %v", err)
	}

	res, err = Sort(context.Background(), o, Auto(Hints{K: 4, Mode: RequireCR}), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != "cr" {
		t.Errorf("Auto chose %q, want cr", res.Algorithm)
	}
}

// TestAlgorithmRegistryFacade: listing and by-name dispatch round-trip
// through the facade, including CLI aliases.
func TestAlgorithmRegistryFacade(t *testing.T) {
	infos := Algorithms()
	if len(infos) < 9 {
		t.Fatalf("registry lists %d regimens, want >= 9", len(infos))
	}
	labels := []int{0, 1, 0, 1, 2, 2, 0, 1, 2, 0, 1, 2}
	twoClass := []int{0, 1, 0, 1, 0, 0, 0, 1, 0, 0, 1, 0}
	for _, info := range infos {
		alg, err := AlgorithmByName(info.Name, Hints{K: 3, Lambda: 0.25, Seed: 7})
		if err != nil {
			t.Errorf("AlgorithmByName(%q): %v", info.Name, err)
			continue
		}
		// two-class-er is only correct when its k <= 2 promise holds.
		truth := labels
		if info.Name == "two-class-er" {
			truth = twoClass
		}
		o := NewLabelOracle(truth)
		res, err := Sort(context.Background(), o, alg, Config{})
		if err != nil {
			t.Errorf("%s: %v", info.Name, err)
			continue
		}
		if !SameClassification(res.Labels(len(truth)), truth) {
			t.Errorf("%s: wrong classification", info.Name)
		}
	}
	if _, err := AlgorithmByName("rr", Hints{}); err != nil {
		t.Errorf("alias rr: %v", err)
	}
	if _, err := AlgorithmByName("bogus", Hints{}); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

// cancelAfterOracle cancels a context after a fixed number of tests.
type cancelAfterOracle struct {
	inner  Oracle
	after  int64
	count  atomic.Int64
	cancel context.CancelFunc
}

func (c *cancelAfterOracle) N() int { return c.inner.N() }

func (c *cancelAfterOracle) Same(i, j int) bool {
	if c.count.Add(1) == c.after {
		c.cancel()
	}
	return c.inner.Same(i, j)
}

// TestSortCancellationNoLeak is the acceptance check: a cancelled
// context stops a 10k-element sort between rounds with ctx.Err(), and
// closing the dedicated pool leaves no goroutines behind.
func TestSortCancellationNoLeak(t *testing.T) {
	const n = 10_000
	labels := SampleLabels(NewUniform(8), n, rand.New(rand.NewSource(9)))
	base := NewLabelOracle(labels)

	before := runtime.NumGoroutine()
	pool := NewRuntime(4)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	o := &cancelAfterOracle{inner: base, after: 5000, cancel: cancel}

	_, err := Sort(ctx, o, ER(), Config{Workers: 4, Runtime: pool})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Cancellation is checked between physical rounds: the sort must
	// stop far short of the full run's comparison bill.
	if got := o.count.Load(); got >= int64(n)*3 {
		t.Errorf("sort kept comparing after cancel: %d tests", got)
	}

	pool.Close()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Errorf("goroutine leak after cancelled sort: %d live, started with %d", got, before)
	}
}

// TestSortDeadline: a deadline context reports DeadlineExceeded.
func TestSortDeadline(t *testing.T) {
	labels := SampleLabels(NewUniform(4), 512, rand.New(rand.NewSource(10)))
	slow := &slowOracle{inner: NewLabelOracle(labels)}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, err := Sort(ctx, slow, ER(), Config{Workers: 1})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

type slowOracle struct{ inner Oracle }

func (s *slowOracle) N() int { return s.inner.N() }

func (s *slowOracle) Same(i, j int) bool {
	time.Sleep(20 * time.Microsecond)
	return s.inner.Same(i, j)
}

// TestClassifyStrings: the typed front end over a non-integer type.
func TestClassifyStrings(t *testing.T) {
	words := []string{"ant", "bee", "ape", "bat", "cow", "cat", "axe"}
	eq := func(a, b string) bool { return a[0] == b[0] }
	classes, err := Classify(context.Background(), words, eq, CRUnknownK(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if classes.NumClasses() != 3 {
		t.Fatalf("NumClasses = %d, want 3", classes.NumClasses())
	}
	if classes.Algorithm != "cr-unknown-k" {
		t.Errorf("Algorithm = %q", classes.Algorithm)
	}
	got := map[byte]int{}
	for _, cls := range classes.Materialize() {
		for _, w := range cls {
			if w[0] != cls[0][0] {
				t.Errorf("class mixes %q and %q", cls[0], w)
			}
		}
		got[cls[0][0]] = len(cls)
	}
	if got['a'] != 3 || got['b'] != 2 || got['c'] != 2 {
		t.Errorf("class sizes = %v", got)
	}
	labels := classes.Labels()
	if len(labels) != len(words) {
		t.Fatalf("Labels length %d", len(labels))
	}
	for i, w := range words {
		for j, v := range words {
			if (labels[i] == labels[j]) != (w[0] == v[0]) {
				t.Fatalf("labels disagree for %q vs %q", w, v)
			}
		}
	}
}

// TestClassifyWithAuto: Classify composes with the planner and ctx.
func TestClassifyWithAuto(t *testing.T) {
	type user struct{ cohort int }
	users := make([]user, 240)
	for i := range users {
		users[i] = user{cohort: i % 3}
	}
	classes, err := Classify(context.Background(), users,
		func(a, b user) bool { return a.cohort == b.cohort },
		Auto(Hints{K: 3}), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if classes.Algorithm != "cr" {
		t.Errorf("Auto under Classify chose %q", classes.Algorithm)
	}
	if classes.NumClasses() != 3 {
		t.Errorf("NumClasses = %d", classes.NumClasses())
	}
	for i := 0; i < classes.NumClasses(); i++ {
		if len(classes.Class(i)) != 80 {
			t.Errorf("class %d has %d members", i, len(classes.Class(i)))
		}
	}
}

// TestClassifyAllocOverhead guards the satellite promise: the generic
// front end adds no more than 2 allocations over the raw oracle path.
func TestClassifyAllocOverhead(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const n, k = 512, 8
	items := make([]int, n)
	for i := range items {
		items[i] = i % k
	}
	eq := func(a, b int) bool { return a == b }
	ctx := context.Background()
	cfg := Config{Workers: 1}
	alg := CR(k)
	raw := &intSliceOracle{labels: items}

	// Warm both paths (lazy pools, scratch arenas).
	if _, err := Sort(ctx, raw, alg, cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := Classify(ctx, items, eq, alg, cfg); err != nil {
		t.Fatal(err)
	}

	rawAllocs := testing.AllocsPerRun(10, func() {
		if _, err := Sort(ctx, raw, alg, cfg); err != nil {
			t.Fatal(err)
		}
	})
	genAllocs := testing.AllocsPerRun(10, func() {
		if _, err := Classify(ctx, items, eq, alg, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if genAllocs > rawAllocs+2 {
		t.Errorf("Classify = %v allocs/op vs raw %v: overhead %v > 2",
			genAllocs, rawAllocs, genAllocs-rawAllocs)
	}
}

// intSliceOracle is the hand-rolled oracle Classify replaces — the
// baseline for the overhead guard.
type intSliceOracle struct{ labels []int }

func (o *intSliceOracle) N() int             { return len(o.labels) }
func (o *intSliceOracle) Same(i, j int) bool { return o.labels[i] == o.labels[j] }

// BenchmarkClassify compares the typed generic front end against the
// raw oracle path it wraps; CI runs it with -benchmem so the alloc
// delta stays visible in the bench artifacts.
func BenchmarkClassify(b *testing.B) {
	const n, k = 2048, 8
	items := make([]int, n)
	for i := range items {
		items[i] = i % k
	}
	eq := func(a, b int) bool { return a == b }
	ctx := context.Background()
	cfg := Config{Workers: 1}
	b.Run("raw-oracle", func(b *testing.B) {
		o := &intSliceOracle{labels: items}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Sort(ctx, o, CR(k), cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("generic", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Classify(ctx, items, eq, CR(k), cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ExampleClassify demonstrates the typed quickstart from the README.
func ExampleClassify() {
	words := []string{"go", "rust", "gleam", "ruby", "zig"}
	classes, _ := Classify(context.Background(), words,
		func(a, b string) bool { return a[0] == b[0] },
		CRUnknownK(), Config{})
	for _, cls := range classes.Materialize() {
		fmt.Println(strings.Join(cls, " "))
	}
	// Output:
	// go gleam
	// rust ruby
	// zig
}
