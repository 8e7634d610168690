package core

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"ecsort/internal/graphs"
	"ecsort/internal/model"
	"ecsort/internal/oracle"
	"ecsort/internal/unionfind"
)

func constCfg(lambda float64, d int, seed int64) ConstRoundConfig {
	return ConstRoundConfig{
		Lambda:     lambda,
		D:          d,
		MaxRetries: 3,
		Rng:        rand.New(rand.NewSource(seed)),
	}
}

func TestConstRoundCorrectBalanced(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, tc := range []struct {
		n, k   int
		lambda float64
	}{
		{30, 3, 0.3}, {100, 3, 0.3}, {90, 2, 0.4}, {200, 4, 0.2},
	} {
		truth := oracle.RandomBalanced(tc.n, tc.k, rng)
		s := model.NewSession(truth, model.ER)
		res, err := SortConstRoundER(s, constCfg(tc.lambda, 0, 33))
		if err != nil {
			t.Fatalf("n=%d k=%d λ=%v: %v", tc.n, tc.k, tc.lambda, err)
		}
		checkResult(t, res, truth)
	}
}

func TestConstRoundTinyInputs(t *testing.T) {
	for _, labels := range [][]int{{0}, {0, 0}, {0, 1}} {
		truth := oracle.NewLabel(labels)
		s := model.NewSession(truth, model.ER)
		res, err := SortConstRoundER(s, constCfg(0.4, 0, 1))
		if err != nil {
			t.Fatalf("labels %v: %v", labels, err)
		}
		checkResult(t, res, truth)
	}
}

func TestConstRoundEmpty(t *testing.T) {
	truth := oracle.NewLabel(nil)
	s := model.NewSession(truth, model.ER)
	res, err := SortConstRoundER(s, constCfg(0.4, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Classes) != 0 {
		t.Fatalf("classes = %v", res.Classes)
	}
}

func TestConstRoundValidation(t *testing.T) {
	truth := oracle.NewLabel([]int{0, 0, 1, 1})
	s := model.NewSession(truth, model.ER)
	if _, err := SortConstRoundER(s, ConstRoundConfig{Lambda: 0.5, Rng: rand.New(rand.NewSource(1))}); err == nil {
		t.Error("lambda > 0.4 accepted")
	}
	if _, err := SortConstRoundER(s, ConstRoundConfig{Lambda: 0.3}); err == nil {
		t.Error("nil rng accepted")
	}
	crs := model.NewSession(truth, model.CR)
	if _, err := SortConstRoundER(crs, constCfg(0.3, 0, 1)); err == nil {
		t.Error("CR session accepted")
	}
}

// TestConstRoundFailsGracefullyOnTinyClasses: when the smallest class is
// far below λn and D is small, the algorithm should admit failure rather
// than return a wrong answer.
func TestConstRoundFailsGracefullyOnTinyClasses(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	// 1 lone element among 199 others: ℓ/n = 0.005 « λ = 0.4.
	sizes := []int{1, 99, 100}
	truth := oracle.RandomSizes(sizes, rng)
	s := model.NewSession(truth, model.ER)
	res, err := SortConstRoundER(s, ConstRoundConfig{
		Lambda:     0.4,
		D:          2,
		MaxRetries: 2,
		Rng:        rand.New(rand.NewSource(5)),
	})
	if err == nil {
		// If it succeeded anyway, the answer must still be right (the
		// algorithm only returns complete classifications).
		checkResult(t, res, truth)
		return
	}
	if !errors.Is(err, ErrConstRoundFailed) {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestTheorem4ConstantRounds: for fixed λ the number of rounds must not
// grow with n.
func TestTheorem4ConstantRounds(t *testing.T) {
	lambda := 0.3
	d := 8 // modest constant; retries cover the rare failures
	roundsAt := func(n int) int {
		truth := oracle.RandomBalanced(n, 3, rand.New(rand.NewSource(int64(n))))
		s := model.NewSession(truth, model.ER)
		res, err := SortConstRoundER(s, ConstRoundConfig{
			Lambda:     lambda,
			D:          d,
			MaxRetries: 6,
			Rng:        rand.New(rand.NewSource(int64(n) * 7)),
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got := len(res.Classes); got != 3 {
			t.Fatalf("n=%d: got %d classes, want 3", n, got)
		}
		return s.Stats().Rounds
	}
	small := roundsAt(300)
	large := roundsAt(4800)
	// Allow slack for odd/even cycle splits and retries, but a
	// logarithmic or worse growth would blow this out.
	if large > 3*small+30 {
		t.Errorf("rounds grew with n: %d at n=300 vs %d at n=4800", small, large)
	}
}

// TestConstRoundRetryOnUnluckyDraw: with D=1 failures are common; the
// retry loop must still converge or fail cleanly, never mis-classify.
func TestConstRoundRetrySafety(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 10; trial++ {
		truth := oracle.RandomBalanced(60, 3, rng)
		s := model.NewSession(truth, model.ER)
		res, err := SortConstRoundER(s, ConstRoundConfig{
			Lambda:     0.3,
			D:          1,
			MaxRetries: 4,
			Rng:        rand.New(rand.NewSource(int64(trial))),
		})
		if err != nil {
			if !errors.Is(err, ErrConstRoundFailed) {
				t.Fatalf("trial %d: unexpected error %v", trial, err)
			}
			continue
		}
		checkResult(t, res, truth)
	}
}

// TestConstRoundNoAnchorRedraws: when no component reaches the anchor
// threshold the attempt sweeps nothing and draws again, so a run that
// never finds an anchor spends exactly d·n tests in 2d rounds per draw.
func TestConstRoundNoAnchorRedraws(t *testing.T) {
	// Every element is its own class: no edge tests equal and every
	// component is a singleton, below the threshold ⌊0.4·40/8⌋ = 2.
	const n, d, retries = 40, 2, 3
	labels := make([]int, n)
	for i := range labels {
		labels[i] = i
	}
	s := model.NewSession(oracle.NewLabel(labels), model.ER)
	_, err := SortConstRoundER(s, ConstRoundConfig{
		Lambda:     0.4,
		D:          d,
		MaxRetries: retries,
		Rng:        rand.New(rand.NewSource(64)),
	})
	if !errors.Is(err, ErrConstRoundFailed) {
		t.Fatalf("err = %v, want ErrConstRoundFailed", err)
	}
	// n is even, so each cycle's edges take two rounds.
	st := s.Stats()
	if st.Comparisons != (retries+1)*d*n || st.Rounds != (retries+1)*2*d {
		t.Fatalf("stats = %+v, want %d comparisons in %d rounds", st, (retries+1)*d*n, (retries+1)*2*d)
	}
}

// TestUniteRoundUnitesOnlyEqualPairs: one ER round, and only the pairs
// that tested equal join a set.
func TestUniteRoundUnitesOnlyEqualPairs(t *testing.T) {
	s := model.NewSession(oracle.NewLabel([]int{0, 0, 0, 1, 1, 2}), model.ER)
	dsu := unionfind.New(6)
	res, err := uniteRound(s, dsu, []model.Pair{{A: 0, B: 1}, {A: 3, B: 4}, {A: 2, B: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if want := []bool{true, true, false}; !slices.Equal(res, want) {
		t.Fatalf("results = %v, want %v", res, want)
	}
	if _, err := uniteRound(s, dsu, []model.Pair{{A: 1, B: 2}, {A: 4, B: 5}}); err != nil {
		t.Fatal(err)
	}
	want := [][]int{{0, 1, 2}, {3, 4}, {5}}
	if got := dsu.Groups(); !reflect.DeepEqual(got, want) {
		t.Fatalf("groups = %v, want %v", got, want)
	}
	if st := s.Stats(); st.Rounds != 2 || st.Comparisons != 5 {
		t.Fatalf("stats = %+v, want 5 comparisons in 2 rounds", st)
	}
}

// TestUniteRoundRejectsOverlap: a round that is not vertex-disjoint is
// refused by the ER session and unites nothing.
func TestUniteRoundRejectsOverlap(t *testing.T) {
	s := model.NewSession(oracle.NewLabel([]int{0, 0, 0}), model.ER)
	dsu := unionfind.New(3)
	if _, err := uniteRound(s, dsu, []model.Pair{{A: 0, B: 1}, {A: 1, B: 2}}); !errors.Is(err, model.ErrERConflict) {
		t.Fatalf("err = %v, want ErrERConflict", err)
	}
	if dsu.Sets() != 3 || s.Stats().Comparisons != 0 {
		t.Fatalf("after a refused round: %d sets, %d comparisons", dsu.Sets(), s.Stats().Comparisons)
	}
}

// TestConstRoundComponentsOrdered: finish sees the components of the
// equal-tested edges largest first, ties by smallest member, each one a
// union-find set in increasing order inside one true class, together
// covering every element once.
func TestConstRoundComponentsOrdered(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(60)
		k := 1 + rng.Intn(4)
		labels := make([]int, n)
		for i := range labels {
			labels[i] = rng.Intn(k)
		}
		s := model.NewSession(oracle.NewLabel(labels), model.ER)
		ok := true
		_, err := constRound(s, 1+rng.Intn(3), 0, rng, func(dsu *unionfind.DSU, comps [][]int) (bool, error) {
			covered := 0
			for i, c := range comps {
				covered += len(c)
				if i > 0 {
					prev := comps[i-1]
					if len(prev) < len(c) || len(prev) == len(c) && prev[0] > c[0] {
						ok = false
					}
				}
				if dsu.SizeOf(c[0]) != len(c) {
					ok = false
				}
				for j, e := range c {
					if j > 0 && c[j-1] >= e || labels[e] != labels[c[0]] || !dsu.Same(e, c[0]) {
						ok = false
					}
				}
			}
			return true, nil
		})
		return ok && err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestConstRoundAttemptCost: each attempt draws one H_d from rng and
// tests its d·n edges in its ER rounds, nothing more; a finish that never
// succeeds runs maxRetries+1 times, and then ErrConstRoundFailed is
// returned.
func TestConstRoundAttemptCost(t *testing.T) {
	const n, d, retries = 41, 3, 2
	s := model.NewSession(oracle.RandomBalanced(n, 3, rand.New(rand.NewSource(61))), model.ER)
	calls := 0
	_, err := constRound(s, d, retries, rand.New(rand.NewSource(62)), func(*unionfind.DSU, [][]int) (bool, error) {
		calls++
		return false, nil
	})
	if !errors.Is(err, ErrConstRoundFailed) {
		t.Fatalf("err = %v, want ErrConstRoundFailed", err)
	}
	if calls != retries+1 {
		t.Fatalf("finish ran %d times, want %d", calls, retries+1)
	}
	// Replay the draws: the rounds spent are exactly those of the
	// retries+1 cycle unions the same rng yields, 3 per odd cycle.
	replay := rand.New(rand.NewSource(62))
	rounds := 0
	for range retries + 1 {
		rounds += len(graphs.NewHamiltonian(n, d, replay).ERRounds())
	}
	st := s.Stats()
	if rounds != (retries+1)*3*d || st.Rounds != rounds || st.Comparisons != (retries+1)*d*n {
		t.Fatalf("stats = %+v, want %d comparisons in %d rounds", st, (retries+1)*d*n, rounds)
	}
}

// TestConstRoundRedrawStartsAfresh: what one attempt's finish unites does
// not leak into the next attempt's components or into the result.
func TestConstRoundRedrawStartsAfresh(t *testing.T) {
	labels := []int{0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2}
	s := model.NewSession(oracle.NewLabel(labels), model.ER)
	withinClasses := func(groups [][]int) bool {
		for _, c := range groups {
			for _, e := range c {
				if labels[e] != labels[c[0]] {
					return false
				}
			}
		}
		return true
	}
	attempts := 0
	res, err := constRound(s, 2, 1, rand.New(rand.NewSource(63)), func(dsu *unionfind.DSU, comps [][]int) (bool, error) {
		attempts++
		if !withinClasses(comps) {
			t.Errorf("attempt %d: components %v span classes", attempts, comps)
		}
		if attempts == 1 {
			for e := range labels {
				dsu.Union(0, e)
			}
			return false, nil
		}
		return true, nil
	})
	if err != nil || attempts != 2 {
		t.Fatalf("err = %v after %d attempts, want success on the second", err, attempts)
	}
	if !withinClasses(res.Classes) {
		t.Fatalf("classes %v span true classes", res.Classes)
	}
}

// TestConstRoundFinishErrorStops: an error from finish ends the sort at
// once, without another draw.
func TestConstRoundFinishErrorStops(t *testing.T) {
	boom := errors.New("boom")
	s := model.NewSession(oracle.RandomBalanced(30, 2, rand.New(rand.NewSource(67))), model.ER)
	calls := 0
	_, err := constRound(s, 1, 5, rand.New(rand.NewSource(68)), func(*unionfind.DSU, [][]int) (bool, error) {
		calls++
		return false, boom
	})
	if !errors.Is(err, boom) || calls != 1 {
		t.Fatalf("err = %v after %d calls, want boom after 1", err, calls)
	}
	if got := s.Stats().Comparisons; got != 30 {
		t.Fatalf("comparisons = %d, want one cycle's 30", got)
	}
}

// TestConstRoundStopsOnCancelledSession: a session whose context has
// ended refuses the first round of H_d; the error comes back and finish
// never runs.
func TestConstRoundStopsOnCancelledSession(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	truth := oracle.RandomBalanced(30, 2, rand.New(rand.NewSource(69)))
	s := model.NewSession(truth, model.ER, model.WithContext(ctx))
	_, err := constRound(s, 2, 3, rand.New(rand.NewSource(70)), func(*unionfind.DSU, [][]int) (bool, error) {
		t.Error("finish ran on a cancelled session")
		return true, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := s.Stats().Comparisons; got != 0 {
		t.Fatalf("comparisons = %d, want 0", got)
	}
}

// TestSweepAnchorsSchedule: each anchor sweeps |anchor| targets a round,
// and only the elements the anchors before it left unmatched; matches
// join their anchor's set and the rest come back in increasing order.
func TestSweepAnchorsSchedule(t *testing.T) {
	labels := []int{0, 0, 1, 1, 1, 1, 0, 2, 0, 1, 2}
	s := model.NewSession(oracle.NewLabel(labels), model.ER)
	dsu := unionfind.New(len(labels))
	anchors := [][]int{{0, 1}, {2, 3, 4}}
	for _, a := range anchors {
		for _, e := range a[1:] {
			dsu.Union(a[0], e)
		}
	}
	left, err := sweepAnchors(s, dsu, anchors)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{7, 10}; !slices.Equal(left, want) {
		t.Fatalf("unmatched = %v, want %v", left, want)
	}
	want := [][]int{{0, 1, 6, 8}, {2, 3, 4, 5, 9}, {7}, {10}}
	if got := dsu.Groups(); !reflect.DeepEqual(got, want) {
		t.Fatalf("groups = %v, want %v", got, want)
	}
	// {0,1} sweeps 5..10 in 3 rounds of 2 and matches 6 and 8; {2,3,4}
	// sweeps 5, 7, 9 and 10 in rounds of 3 and 1.
	if st := s.Stats(); st.Comparisons != 10 || st.Rounds != 5 || st.MaxRoundSize != 3 {
		t.Fatalf("stats = %+v, want 10 comparisons in 5 rounds, widest 3", st)
	}
}

// TestSweepAnchorsNothingLeft: anchors that cover every element sweep
// nothing.
func TestSweepAnchorsNothingLeft(t *testing.T) {
	s := model.NewSession(oracle.NewLabel([]int{0, 0, 1}), model.ER)
	dsu := unionfind.New(3)
	dsu.Union(0, 1)
	left, err := sweepAnchors(s, dsu, [][]int{{0, 1}, {2}})
	if err != nil || len(left) != 0 {
		t.Fatalf("unmatched = %v, err = %v; want none", left, err)
	}
	if st := s.Stats(); st.Comparisons != 0 || st.Rounds != 0 {
		t.Fatalf("stats = %+v, want no tests", st)
	}
}

// TestLambdaHalvingRecipe exercises the paper's remark: when λ is unknown,
// halve a failing guess until the algorithm succeeds.
func TestLambdaHalvingRecipe(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	truth := oracle.RandomSizes([]int{30, 70, 100}, rng) // ℓ/n = 0.15
	s := model.NewSession(truth, model.ER)
	lambda := 0.4
	for {
		res, err := SortConstRoundER(s, ConstRoundConfig{
			Lambda:     lambda,
			D:          10,
			MaxRetries: 1,
			Rng:        rand.New(rand.NewSource(77)),
		})
		if err == nil {
			checkResult(t, res, truth)
			return
		}
		if !errors.Is(err, ErrConstRoundFailed) {
			t.Fatal(err)
		}
		lambda /= 2
		if lambda < 1e-3 {
			t.Fatal("halving recipe never succeeded")
		}
	}
}
