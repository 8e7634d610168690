package model

import (
	"errors"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"

	rt "ecsort/internal/runtime"
)

// parityOracle puts even and odd elements in two classes.
type parityOracle struct{ n int }

func (o parityOracle) N() int             { return o.n }
func (o parityOracle) Same(i, j int) bool { return i%2 == j%2 }

// countingOracle records how many times Same is invoked.
type countingOracle struct {
	n     int
	calls atomic.Int64
}

func (o *countingOracle) N() int { return o.n }
func (o *countingOracle) Same(i, j int) bool {
	o.calls.Add(1)
	return false
}

func TestRoundAnswers(t *testing.T) {
	s := NewSession(parityOracle{n: 10}, CR)
	res, err := s.Round([]Pair{{0, 2}, {0, 1}, {3, 5}, {4, 7}})
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{true, false, true, false}
	for i := range want {
		if res[i] != want[i] {
			t.Fatalf("res = %v, want %v", res, want)
		}
	}
}

func TestEmptyRoundIsFree(t *testing.T) {
	s := NewSession(parityOracle{n: 4}, ER)
	if _, err := s.Round(nil); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Rounds != 0 || st.Comparisons != 0 {
		t.Fatalf("empty round charged cost: %+v", st)
	}
}

func TestERConflictDetected(t *testing.T) {
	s := NewSession(parityOracle{n: 10}, ER)
	_, err := s.Round([]Pair{{0, 1}, {1, 2}})
	if !errors.Is(err, ErrERConflict) {
		t.Fatalf("err = %v, want ErrERConflict", err)
	}
}

func TestCRAllowsReuse(t *testing.T) {
	s := NewSession(parityOracle{n: 10}, CR)
	if _, err := s.Round([]Pair{{0, 1}, {1, 2}, {0, 2}}); err != nil {
		t.Fatal(err)
	}
}

func TestValidationErrors(t *testing.T) {
	s := NewSession(parityOracle{n: 4}, CR)
	if _, err := s.Round([]Pair{{0, 4}}); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("err = %v, want ErrOutOfRange", err)
	}
	if _, err := s.Round([]Pair{{-1, 0}}); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("err = %v, want ErrOutOfRange", err)
	}
	if _, err := s.Round([]Pair{{2, 2}}); !errors.Is(err, ErrSelfCompare) {
		t.Fatalf("err = %v, want ErrSelfCompare", err)
	}
}

func TestFailedRoundChargesNothing(t *testing.T) {
	s := NewSession(parityOracle{n: 4}, ER)
	s.Round([]Pair{{0, 1}, {1, 2}}) //nolint:errcheck // intentionally invalid
	if st := s.Stats(); st.Rounds != 0 || st.Comparisons != 0 {
		t.Fatalf("invalid round charged cost: %+v", st)
	}
}

func TestProcessorBudgetSplitsRounds(t *testing.T) {
	o := &countingOracle{n: 100}
	s := NewSession(o, ER, Processors(3))
	pairs := []Pair{{0, 1}, {2, 3}, {4, 5}, {6, 7}, {8, 9}, {10, 11}, {12, 13}}
	if _, err := s.Round(pairs); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Rounds != 3 { // ceil(7/3)
		t.Errorf("Rounds = %d, want 3", st.Rounds)
	}
	if st.Comparisons != 7 {
		t.Errorf("Comparisons = %d, want 7", st.Comparisons)
	}
	if st.MaxRoundSize != 3 {
		t.Errorf("MaxRoundSize = %d, want 3", st.MaxRoundSize)
	}
	if calls := o.calls.Load(); calls != 7 {
		t.Errorf("oracle calls = %d, want 7", calls)
	}
}

func TestDefaultBudgetIsN(t *testing.T) {
	o := &countingOracle{n: 8}
	s := NewSession(o, CR)
	pairs := make([]Pair, 0, 12)
	for i := 0; i < 8; i++ {
		for j := i + 1; j < 8 && len(pairs) < 12; j++ {
			pairs = append(pairs, Pair{i, j})
		}
	}
	if _, err := s.Round(pairs); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Rounds != 2 { // 12 comparisons, budget 8
		t.Errorf("Rounds = %d, want 2", st.Rounds)
	}
}

func TestCompareCharges(t *testing.T) {
	s := NewSession(parityOracle{n: 6}, ER)
	if !s.Compare(0, 2) {
		t.Error("Compare(0,2) = false, want true")
	}
	if s.Compare(0, 1) {
		t.Error("Compare(0,1) = true, want false")
	}
	st := s.Stats()
	if st.Comparisons != 2 || st.Rounds != 2 {
		t.Errorf("stats = %+v, want 2 comparisons in 2 rounds", st)
	}
}

func TestComparePanics(t *testing.T) {
	s := NewSession(parityOracle{n: 3}, ER)
	for _, tc := range []struct{ i, j int }{{0, 3}, {-1, 1}, {2, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Compare(%d,%d) did not panic", tc.i, tc.j)
				}
			}()
			s.Compare(tc.i, tc.j)
		}()
	}
}

// TestParallelExecutionMatchesSequential checks that worker parallelism
// never changes answers or their order.
func TestParallelExecutionMatchesSequential(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 16 + rng.Intn(64)
		labels := make([]int, n)
		for i := range labels {
			labels[i] = rng.Intn(4)
		}
		oracle := labelOracle{labels}
		var pairs []Pair
		for len(pairs) < 200 {
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b {
				pairs = append(pairs, Pair{a, b})
			}
		}
		seq := NewSession(oracle, CR, Workers(1), Processors(1<<20))
		par := NewSession(oracle, CR, Workers(8), Processors(1<<20))
		r1, err1 := seq.Round(pairs)
		r2, err2 := par.Round(pairs)
		if err1 != nil || err2 != nil {
			return false
		}
		for i := range r1 {
			if r1[i] != r2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

type labelOracle struct{ labels []int }

func (o labelOracle) N() int             { return len(o.labels) }
func (o labelOracle) Same(i, j int) bool { return o.labels[i] == o.labels[j] }

// TestWorkersZeroMeansGOMAXPROCS: Workers(0) is the documented explicit
// spelling of the default.
func TestWorkersZeroMeansGOMAXPROCS(t *testing.T) {
	s := NewSession(parityOracle{n: 4}, CR, Workers(1), Workers(0))
	if want := runtime.GOMAXPROCS(0); s.workers != want {
		t.Errorf("Workers(0) set width %d, want GOMAXPROCS %d", s.workers, want)
	}
}

// TestWorkersNegativePanics: a negative width is a caller bug and must
// fail loudly with ErrBadWorkers instead of being silently ignored.
func TestWorkersNegativePanics(t *testing.T) {
	defer func() {
		r := recover()
		err, ok := r.(error)
		if !ok || !errors.Is(err, ErrBadWorkers) {
			t.Errorf("Workers(-3) panicked with %v, want ErrBadWorkers", r)
		}
	}()
	NewSession(parityOracle{n: 4}, CR, Workers(-3))
	t.Error("Workers(-3) did not panic")
}

// TestWithPoolMatchesDefault: an explicit pool changes where rounds run,
// never what they answer.
func TestWithPoolMatchesDefault(t *testing.T) {
	pool := rt.NewPool(3)
	defer pool.Close()
	labels := make([]int, 64)
	for i := range labels {
		labels[i] = i % 5
	}
	o := labelOracle{labels}
	var pairs []Pair
	for i := 0; i+1 < len(labels); i++ {
		pairs = append(pairs, Pair{i, i + 1})
	}
	def := NewSession(o, CR, Workers(8))
	pooled := NewSession(o, CR, Workers(8), WithPool(pool))
	want, err1 := def.Round(pairs)
	got, err2 := pooled.Round(pairs)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pooled answers diverge at %d", i)
		}
	}
	if pool.Stats().Jobs == 0 {
		t.Error("explicit pool executed no jobs")
	}
	if def.Stats() != pooled.Stats() {
		t.Errorf("stats diverge: %+v vs %+v", def.Stats(), pooled.Stats())
	}
}

// TestPooledSerialRoundsCountInline: a session built WithPool hands
// every round to its pool, so the rounds the pool runs inline — all of a
// Workers(1) session's, and a wider session's single-test rounds — show
// in its Inline counter instead of bypassing the pool.
func TestPooledSerialRoundsCountInline(t *testing.T) {
	pool := rt.NewPool(2)
	defer pool.Close()
	o := parityOracle{n: 8}
	serial := NewSession(o, CR, Workers(1), WithPool(pool))
	for range 3 {
		if _, err := serial.Round([]Pair{{0, 1}, {2, 3}, {4, 6}}); err != nil {
			t.Fatal(err)
		}
	}
	if st := pool.Stats(); st.Inline != 3 || st.Jobs != 0 {
		t.Fatalf("3 serial rounds: Inline = %d, Jobs = %d; want 3 and 0", st.Inline, st.Jobs)
	}
	wide := NewSession(o, CR, Workers(2), WithPool(pool))
	if _, err := wide.Round([]Pair{{0, 2}}); err != nil {
		t.Fatal(err)
	}
	if st := pool.Stats(); st.Inline != 4 || st.Jobs != 0 {
		t.Fatalf("1-test round on a 2-wide session: Inline = %d, Jobs = %d; want 4 and 0", st.Inline, st.Jobs)
	}
}

func TestModeString(t *testing.T) {
	if ER.String() != "ER" || CR.String() != "CR" {
		t.Errorf("Mode strings wrong: %v %v", ER, CR)
	}
	if Mode(7).String() != "Mode(7)" {
		t.Errorf("unknown mode string: %v", Mode(7))
	}
}

// TestERStampReset ensures an element used in round r can be used again in
// round r+1 (the conflict check is per-round).
func TestERStampReset(t *testing.T) {
	s := NewSession(parityOracle{n: 4}, ER)
	if _, err := s.Round([]Pair{{0, 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Round([]Pair{{0, 2}}); err != nil {
		t.Fatalf("element reuse across rounds rejected: %v", err)
	}
}

// TestRoundBufReuse: with a big enough buffer the results land in the
// caller's storage and the round allocates nothing for them; answers
// match Round's.
func TestRoundBufReuse(t *testing.T) {
	s := NewSession(parityOracle{n: 8}, CR, Workers(1))
	pairs := []Pair{{0, 2}, {0, 1}, {3, 5}, {4, 7}}
	want, err := s.Round(pairs)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]bool, 0, 16)
	got, err := s.RoundBuf(pairs, buf)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &buf[:1][0] {
		t.Fatal("RoundBuf did not reuse the caller's buffer")
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("RoundBuf answers %v, Round answers %v", got, want)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := s.RoundBuf(pairs, buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("RoundBuf with capacity allocates %v per run", allocs)
	}
	// A too-small buffer falls back to allocating, like Round.
	small := make([]bool, 0, 1)
	got, err = s.RoundBuf(pairs, small)
	if err != nil || len(got) != len(pairs) {
		t.Fatalf("small-buffer RoundBuf: %v %v", got, err)
	}
}

// TestParallelExecuteAllocs guards the pool execute path's zero-alloc
// steady state at Workers > 1. The benchcmp gate cannot (a 0-alloc
// baseline disables it) and TestRoundBufReuse only covers the serial
// Workers(1) path, so this is the deterministic line for the headline
// no-goroutines-no-garbage claim of the persistent runtime.
func TestParallelExecuteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	pool := rt.NewPool(4)
	defer pool.Close()
	labels := make([]int, 256)
	for i := range labels {
		labels[i] = i % 7
	}
	s := NewSession(labelOracle{labels}, CR, Workers(4), WithPool(pool), Processors(1<<20))
	pairs := make([]Pair, 512)
	for i := range pairs {
		pairs[i] = Pair{i % 256, (i*3 + 1) % 256}
	}
	buf := make([]bool, len(pairs))
	if _, err := s.RoundBuf(pairs, buf); err != nil { // warm the job pool
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := s.RoundBuf(pairs, buf); err != nil {
			t.Fatal(err)
		}
	})
	// Steady state is zero; allow only sync.Pool jitter from a GC that
	// lands mid-measurement.
	if allocs > 0.5 {
		t.Errorf("parallel RoundBuf steady state = %v allocs/op, want 0", allocs)
	}
}

func TestRoundLog(t *testing.T) {
	o := parityOracle{n: 8}
	s := NewSession(o, ER, Processors(2), WithRoundLog())
	if _, err := s.Round([]Pair{{0, 1}, {2, 3}, {4, 5}}); err != nil {
		t.Fatal(err)
	}
	s.Compare(0, 2)
	log := s.RoundLog()
	want := []int{2, 1, 1}
	if len(log) != len(want) {
		t.Fatalf("log = %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log = %v, want %v", log, want)
		}
	}
}

func TestRoundLogOffByDefault(t *testing.T) {
	s := NewSession(parityOracle{n: 4}, ER)
	if _, err := s.Round([]Pair{{0, 1}}); err != nil {
		t.Fatal(err)
	}
	if len(s.RoundLog()) != 0 {
		t.Fatal("round log recorded without WithRoundLog")
	}
}

// indexRunner records every index it is run on.
type indexRunner struct{ hits []atomic.Int32 }

func (r *indexRunner) RunChunk(lo, hi int) {
	for i := lo; i < hi; i++ {
		r.hits[i].Add(1)
	}
}

// TestRunPassWidth checks that RunPass covers its range once at every
// width, hands a parallel pass to the session's pool as one job, and
// runs a serial one — Workers(1), or a single index — on the caller
// without counting it.
func TestRunPassWidth(t *testing.T) {
	pool := rt.NewPool(4)
	defer pool.Close()
	for _, tc := range []struct {
		workers, n int
		jobs       int64
	}{{1, 100, 0}, {2, 100, 1}, {4, 100, 1}, {4, 1, 0}, {4, 0, 0}} {
		s := NewSession(parityOracle{n: 4}, CR, Workers(tc.workers), WithPool(pool))
		r := &indexRunner{hits: make([]atomic.Int32, tc.n)}
		before := pool.Stats()
		RunPass(s, tc.n, r)
		for i := range r.hits {
			if h := r.hits[i].Load(); h != 1 {
				t.Fatalf("workers=%d n=%d: index %d ran %d times", tc.workers, tc.n, i, h)
			}
		}
		st := pool.Stats()
		if jobs, inline := st.Jobs-before.Jobs, st.Inline-before.Inline; jobs != tc.jobs || inline != 0 {
			t.Errorf("workers=%d n=%d: %d jobs and %d inline runs, want %d and 0", tc.workers, tc.n, jobs, inline, tc.jobs)
		}
	}
}
