package model

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	rt "ecsort/internal/runtime"
)

// Tests for the batch round path: a session over a BatchOracle must
// produce bit-identical answers and stats to the per-pair path while
// invoking the oracle once per chunk — runtime.NumChunks(len(pairs),
// workers) times per physical round instead of len(pairs) times.

// countBatchOracle answers from labels and counts each answering path.
// Counters are atomic: parallel chunks call SameBatch concurrently.
type countBatchOracle struct {
	labels     []int
	sames      atomic.Int64
	batches    atomic.Int64
	batchPairs atomic.Int64
}

func (o *countBatchOracle) N() int { return len(o.labels) }

func (o *countBatchOracle) Same(i, j int) bool {
	o.sames.Add(1)
	return o.labels[i] == o.labels[j]
}

func (o *countBatchOracle) SameBatch(pairs []Pair, out []bool) {
	o.batches.Add(1)
	o.batchPairs.Add(int64(len(pairs)))
	for i, p := range pairs {
		out[i] = o.labels[p.A] == o.labels[p.B]
	}
}

// pairwiseOnly hides an oracle's batch capability: its method set is
// exactly N/Same, so NewSession never detects BatchOracle.
type pairwiseOnly struct{ o *countBatchOracle }

func (p pairwiseOnly) N() int             { return p.o.N() }
func (p pairwiseOnly) Same(i, j int) bool { return p.o.Same(i, j) }

func batchTestWorkload(n, k int, seed int64) ([]int, []Pair) {
	rng := rand.New(rand.NewSource(seed))
	labels := make([]int, n)
	for i := range labels {
		labels[i] = rng.Intn(k)
	}
	pairs := make([]Pair, n)
	for i := range pairs {
		a, b := rng.Intn(n), rng.Intn(n)
		for a == b {
			b = rng.Intn(n)
		}
		pairs[i] = Pair{a, b}
	}
	return labels, pairs
}

func TestBatchRoundEquivalenceAndChunkCount(t *testing.T) {
	const n = 1000
	labels, pairs := batchTestWorkload(n, 5, 97)
	pool := rt.NewPool(4)
	defer pool.Close()

	for _, workers := range []int{1, 4} {
		// Per-pair reference run over the capability-hidden oracle.
		ref := &countBatchOracle{labels: labels}
		sRef := NewSession(pairwiseOnly{ref}, CR,
			Workers(workers), WithPool(pool), Processors(len(pairs)), WithRoundLog())
		want, err := sRef.Round(pairs)
		if err != nil {
			t.Fatalf("workers=%d: per-pair round: %v", workers, err)
		}
		if got := ref.batches.Load(); got != 0 {
			t.Fatalf("workers=%d: capability-hidden oracle got %d SameBatch calls", workers, got)
		}
		if got := ref.sames.Load(); got != int64(len(pairs)) {
			t.Fatalf("workers=%d: per-pair path made %d Same calls, want %d", workers, got, len(pairs))
		}

		// Batch run over the same labels.
		bo := &countBatchOracle{labels: labels}
		sBatch := NewSession(bo, CR,
			Workers(workers), WithPool(pool), Processors(len(pairs)), WithRoundLog())
		got, err := sBatch.Round(pairs)
		if err != nil {
			t.Fatalf("workers=%d: batch round: %v", workers, err)
		}

		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: answer %d = %v, per-pair path said %v", workers, i, got[i], want[i])
			}
		}
		if sBatch.Stats() != sRef.Stats() {
			t.Errorf("workers=%d: batch stats %+v, per-pair stats %+v", workers, sBatch.Stats(), sRef.Stats())
		}
		if bl, rl := sBatch.RoundLog(), sRef.RoundLog(); len(bl) != len(rl) || bl[0] != rl[0] {
			t.Errorf("workers=%d: batch round log %v, per-pair %v", workers, bl, rl)
		}

		if got := bo.sames.Load(); got != 0 {
			t.Errorf("workers=%d: batch path leaked %d per-pair Same calls", workers, got)
		}
		wantChunks := int64(rt.NumChunks(len(pairs), workers))
		if got := bo.batches.Load(); got != wantChunks {
			t.Errorf("workers=%d: %d SameBatch invocations, want NumChunks(%d,%d) = %d",
				workers, got, len(pairs), workers, wantChunks)
		}
		if got := bo.batchPairs.Load(); got != int64(len(pairs)) {
			t.Errorf("workers=%d: SameBatch chunks carried %d pairs, want %d", workers, got, len(pairs))
		}
		// The amortization claim: >= 5x fewer oracle invocations per round.
		if got := bo.batches.Load(); got*5 > int64(len(pairs)) {
			t.Errorf("workers=%d: %d batch invocations for %d pairs; want >= 5x amortization",
				workers, got, len(pairs))
		}
	}
}

// flipBatchOracle answers rounds the opposite of Same, so a test can
// tell which path produced an answer.
type flipBatchOracle struct{ parityOracle }

func (o flipBatchOracle) SameBatch(pairs []Pair, out []bool) {
	for i, p := range pairs {
		out[i] = !o.Same(p.A, p.B)
	}
}

// TestBatchOracleRoutesRounds: a session answers its rounds through
// SameBatch and its sequential Compare calls through Same.
func TestBatchOracleRoutesRounds(t *testing.T) {
	s := NewSession(flipBatchOracle{parityOracle{n: 4}}, CR)
	res, err := s.Round([]Pair{{0, 2}, {0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res[0] || !res[1] {
		t.Fatalf("SameBatch not consulted: %v", res)
	}
	if !s.Compare(0, 2) {
		t.Fatal("Compare should use Same directly")
	}
}

// budgetBatchOracle records how many SameBatch calls it served and the
// largest chunk any of them carried.
type budgetBatchOracle struct {
	parityOracle
	mu                     sync.Mutex
	calls, pairs, maxChunk int
}

func (o *budgetBatchOracle) SameBatch(pairs []Pair, out []bool) {
	o.mu.Lock()
	o.calls++
	o.pairs += len(pairs)
	o.maxChunk = max(o.maxChunk, len(pairs))
	o.mu.Unlock()
	for i, p := range pairs {
		out[i] = o.Same(p.A, p.B)
	}
}

// TestBatchOracleRespectsBudgetSplits: a round larger than the processor
// budget reaches SameBatch one physical round at a time, so no call
// carries more than the budget, and a Workers(1) session makes one call
// per physical round.
func TestBatchOracleRespectsBudgetSplits(t *testing.T) {
	pairs := []Pair{{0, 1}, {2, 3}, {4, 5}, {6, 7}, {8, 9}}
	for _, workers := range []int{1, 4} {
		o := &budgetBatchOracle{parityOracle: parityOracle{n: 16}}
		s := NewSession(o, ER, Processors(2), Workers(workers))
		if _, err := s.Round(pairs); err != nil {
			t.Fatal(err)
		}
		if o.maxChunk > 2 {
			t.Errorf("workers=%d: SameBatch saw %d pairs, budget is 2", workers, o.maxChunk)
		}
		if o.pairs != len(pairs) {
			t.Errorf("workers=%d: SameBatch answered %d pairs, want %d", workers, o.pairs, len(pairs))
		}
		if workers == 1 && o.calls != 3 { // ceil(5/2)
			t.Errorf("workers=1: SameBatch calls = %d, want 3", o.calls)
		}
	}
}

func TestBatchRoundAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	labels, pairs := batchTestWorkload(2048, 6, 131)
	pool := rt.NewPool(4)
	defer pool.Close()
	bo := &countBatchOracle{labels: labels}
	s := NewSession(bo, CR, Workers(4), WithPool(pool), Processors(len(pairs)))
	buf := make([]bool, len(pairs))
	if _, err := s.RoundBuf(pairs, buf); err != nil { // warm the pool
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := s.RoundBuf(pairs, buf); err != nil {
			t.Fatal(err)
		}
	})
	// Steady state: the batch dispatch reuses the session's embedded
	// roundExec and the caller's buffer end to end.
	if allocs > 2 {
		t.Errorf("batch round steady state = %v allocs/op, want <= 2", allocs)
	}
}
