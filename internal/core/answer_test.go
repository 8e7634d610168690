package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"ecsort/internal/model"
	"ecsort/internal/oracle"
)

func TestAnswerAccessors(t *testing.T) {
	a := NewAnswer([][]int{{4, 7}, {1}, {2, 3, 5}})
	if a.K() != 3 || a.Size() != 6 {
		t.Fatalf("K=%d Size=%d", a.K(), a.Size())
	}
	if a.Rep(0) != 4 || a.Rep(1) != 1 || a.Rep(2) != 2 {
		t.Fatalf("reps = %d %d %d", a.Rep(0), a.Rep(1), a.Rep(2))
	}
	if len(a.Class(2)) != 3 {
		t.Fatalf("class 2 = %v", a.Class(2))
	}
	classes := a.Classes()
	if len(classes) != 3 || classes[2][1] != 3 {
		t.Fatalf("classes = %v", classes)
	}
	// Classes copies: mutating the materialized view must not touch a.
	classes[0][0] = 99
	if a.Rep(0) != 4 {
		t.Fatal("Classes aliases the answer's backing")
	}
}

// buildAnswer groups a set of elements by their true labels.
func buildAnswer(elems []int, labels []int) Answer {
	byClass := map[int][]int{}
	var order []int
	for _, e := range elems {
		l := labels[e]
		if _, ok := byClass[l]; !ok {
			order = append(order, l)
		}
		byClass[l] = append(byClass[l], e)
	}
	classes := make([][]int, 0, len(order))
	for _, l := range order {
		classes = append(classes, byClass[l])
	}
	return NewAnswer(classes)
}

// answerMatchesTruth checks an answer is the exact classification of its
// elements under labels.
func answerMatchesTruth(a Answer, labels []int) bool {
	seen := map[int]bool{}
	classOfLabel := map[int]int{}
	for ci, cls := range a.Classes() {
		if len(cls) == 0 {
			return false
		}
		l := labels[cls[0]]
		if _, dup := classOfLabel[l]; dup {
			return false // same true class split across answer classes
		}
		classOfLabel[l] = ci
		for _, e := range cls {
			if labels[e] != l || seen[e] {
				return false
			}
			seen[e] = true
		}
	}
	return true
}

func TestMergePairCRAndER(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(40)
		labels := make([]int, n)
		for i := range labels {
			labels[i] = rng.Intn(5)
		}
		truth := oracle.NewLabel(labels)
		// Split elements into two disjoint sets.
		cut := 1 + rng.Intn(n-2)
		var left, right []int
		for i := 0; i < n; i++ {
			if i < cut {
				left = append(left, i)
			} else {
				right = append(right, i)
			}
		}
		a := buildAnswer(left, labels)
		b := buildAnswer(right, labels)

		cr := model.NewSession(truth, model.CR)
		mergedCR, err := MergeGroupCR(cr, []Answer{a, b})
		if err != nil || !answerMatchesTruth(mergedCR, labels) {
			return false
		}
		// CR pair merge costs K(a)·K(b) comparisons in one logical round.
		if cr.Stats().Comparisons != int64(a.K()*b.K()) {
			return false
		}

		er := model.NewSession(truth, model.ER)
		mergedER, err := MergePairER(er, a, b)
		if err != nil || !answerMatchesTruth(mergedER, labels) {
			return false
		}
		// ER merge never exceeds max(K(a),K(b)) rounds or K(a)·K(b)
		// comparisons.
		if er.Stats().Rounds > max(a.K(), b.K()) {
			return false
		}
		if er.Stats().Comparisons > int64(a.K()*b.K()) {
			return false
		}
		return mergedER.Size() == n && mergedCR.Size() == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestMergeERSavesComparisons: the matched-class skip should usually do
// strictly better than the full K(a)·K(b) grid when classes match.
func TestMergeERSavesComparisons(t *testing.T) {
	labels := []int{0, 1, 2, 0, 1, 2}
	truth := oracle.NewLabel(labels)
	a := buildAnswer([]int{0, 1, 2}, labels)
	b := buildAnswer([]int{3, 4, 5}, labels)
	s := model.NewSession(truth, model.ER)
	merged, err := MergePairER(s, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if merged.K() != 3 {
		t.Fatalf("K = %d, want 3", merged.K())
	}
	// Diagonal matching: rotation round 0 matches everything, so only 3
	// comparisons happen instead of 9.
	if c := s.Stats().Comparisons; c != 3 {
		t.Fatalf("comparisons = %d, want 3 (diagonal match)", c)
	}
}

// matchlessMergeER merges ka singleton classes with kb singleton classes,
// no two of the same true class, so the rotation schedule never finds a
// match and must run to the end. It returns the merged answer and the
// tests of each round in the order they were asked.
func matchlessMergeER(ka, kb int) (Answer, [][]model.RecordedTest, error) {
	labels := make([]int, ka+kb)
	a := make([][]int, ka)
	b := make([][]int, kb)
	for e := range labels {
		labels[e] = e
		if e < ka {
			a[e] = []int{e}
		} else {
			b[e-ka] = []int{e}
		}
	}
	rec := model.NewRecorder(oracle.NewLabel(labels))
	s := model.NewSession(rec, model.ER, model.WithRoundLog(), model.Workers(1))
	merged, err := MergePairER(s, NewAnswer(a), NewAnswer(b))
	if err != nil {
		return Answer{}, nil, err
	}
	var rounds [][]model.RecordedTest
	log := rec.Log
	for _, size := range s.RoundLog() {
		rounds = append(rounds, log[:size])
		log = log[size:]
	}
	return merged, rounds, nil
}

// rotationFault reports how the rounds of a matchless ka×kb ER merge
// break the rotation schedule, or "" if they keep it: max(ka, kb) rounds
// of min(ka, kb) disjoint cross tests that ask every cross pair exactly
// once. Elements below ka are a's, the rest b's.
func rotationFault(ka, kb int, rounds [][]model.RecordedTest) string {
	if len(rounds) != max(ka, kb) {
		return fmt.Sprintf("%d rounds, want max(%d,%d)", len(rounds), ka, kb)
	}
	seen := map[[2]int]bool{}
	for r, round := range rounds {
		if len(round) != min(ka, kb) {
			return fmt.Sprintf("round %d has %d tests, want min(%d,%d)", r, len(round), ka, kb)
		}
		used := map[int]bool{}
		for _, tst := range round {
			if used[tst.A] || used[tst.B] {
				return fmt.Sprintf("round %d tests an element twice", r)
			}
			used[tst.A], used[tst.B] = true, true
			key := [2]int{min(tst.A, tst.B), max(tst.A, tst.B)}
			if key[0] >= ka || key[1] < ka {
				return fmt.Sprintf("round %d tests %v, not a cross pair", r, key)
			}
			if seen[key] {
				return fmt.Sprintf("pair %v asked twice", key)
			}
			seen[key] = true
		}
	}
	if len(seen) != ka*kb {
		return fmt.Sprintf("covered %d cross pairs, want %d", len(seen), ka*kb)
	}
	return ""
}

// TestMergePairERRotationCoversAllCrossPairs pins the Latin-square
// rotation that ER pair merges run: with nothing to match, 3×5 classes
// take 5 rounds of 3 disjoint tests and meet every cross pair once.
func TestMergePairERRotationCoversAllCrossPairs(t *testing.T) {
	merged, rounds, err := matchlessMergeER(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if fault := rotationFault(3, 5, rounds); fault != "" {
		t.Fatal(fault)
	}
	if merged.K() != 8 || merged.Size() != 8 {
		t.Fatalf("merged K=%d Size=%d, want 8 singleton classes", merged.K(), merged.Size())
	}
}

// TestMergePairERRotationQuick checks the rotation's rounds, disjointness
// and exact coverage for random side sizes, either side the larger.
func TestMergePairERRotationQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ka, kb := 1+rng.Intn(12), 1+rng.Intn(12)
		_, rounds, err := matchlessMergeER(ka, kb)
		if err != nil {
			t.Log(err)
			return false
		}
		if fault := rotationFault(ka, kb, rounds); fault != "" {
			t.Logf("ka=%d kb=%d: %s", ka, kb, fault)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestMergePairEREmptySide: merging with an empty answer asks nothing and
// returns the other side's classes unchanged.
func TestMergePairEREmptySide(t *testing.T) {
	truth := oracle.NewLabel([]int{0, 1, 0})
	b := NewAnswer([][]int{{0, 2}, {1}})
	for _, sides := range [][2]Answer{{{}, b}, {b, {}}} {
		s := model.NewSession(truth, model.ER)
		merged, err := MergePairER(s, sides[0], sides[1])
		if err != nil {
			t.Fatal(err)
		}
		if st := s.Stats(); st.Comparisons != 0 || st.Rounds != 0 {
			t.Errorf("empty-side merge cost %d comparisons in %d rounds, want none", st.Comparisons, st.Rounds)
		}
		if got := merged.Classes(); !reflect.DeepEqual(got, b.Classes()) {
			t.Errorf("empty-side merge = %v, want %v", got, b.Classes())
		}
	}
}

func TestMergeGroupCR(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(40)
		labels := make([]int, n)
		for i := range labels {
			labels[i] = rng.Intn(4)
		}
		truth := oracle.NewLabel(labels)
		// Split into 3–5 random groups.
		groups := 3 + rng.Intn(3)
		parts := make([][]int, groups)
		for i := 0; i < n; i++ {
			g := rng.Intn(groups)
			parts[g] = append(parts[g], i)
		}
		var answers []Answer
		for _, p := range parts {
			if len(p) > 0 {
				answers = append(answers, buildAnswer(p, labels))
			}
		}
		if len(answers) < 2 {
			return true
		}
		s := model.NewSession(truth, model.CR)
		merged, err := MergeGroupCR(s, answers)
		if err != nil {
			return false
		}
		return answerMatchesTruth(merged, labels) && merged.Size() == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestMergeGroupCRSingle(t *testing.T) {
	a := NewAnswer([][]int{{0}})
	s := model.NewSession(oracle.NewLabel([]int{0}), model.CR)
	out, err := MergeGroupCR(s, []Answer{a})
	if err != nil || out.K() != 1 {
		t.Fatalf("single group merge: %v %+v", err, out)
	}
	if _, err := MergeGroupCR(s, nil); err == nil {
		t.Fatal("empty group accepted")
	}
}

func TestMergeModeEnforcement(t *testing.T) {
	truth := oracle.NewLabel([]int{0, 1})
	er := model.NewSession(truth, model.ER)
	a, b := NewAnswer([][]int{{0}}), NewAnswer([][]int{{1}})
	if _, err := MergeGroupCR(er, []Answer{a, b}); err == nil {
		t.Fatal("MergeGroupCR accepted ER session")
	}
}

func TestResultCanonicalAndLabels(t *testing.T) {
	r := Result{Classes: [][]int{{5, 2}, {1, 4, 0}, {3}}}
	canon := r.Canonical()
	want := [][]int{{0, 1, 4}, {2, 5}, {3}}
	for i := range want {
		if len(canon[i]) != len(want[i]) {
			t.Fatalf("canonical = %v", canon)
		}
		for j := range want[i] {
			if canon[i][j] != want[i][j] {
				t.Fatalf("canonical = %v", canon)
			}
		}
	}
	labels := r.Labels(6)
	wantLabels := []int{0, 0, 1, 2, 0, 1}
	for i := range wantLabels {
		if labels[i] != wantLabels[i] {
			t.Fatalf("labels = %v, want %v", labels, wantLabels)
		}
	}
	// Uncovered elements get -1.
	partial := Result{Classes: [][]int{{0}}}
	if l := partial.Labels(2); l[1] != -1 {
		t.Fatalf("uncovered label = %d, want -1", l[1])
	}
}

func TestSameClassification(t *testing.T) {
	if !SameClassification([]int{0, 0, 1}, []int{5, 5, 9}) {
		t.Error("identical partitions rejected")
	}
	if SameClassification([]int{0, 0, 1}, []int{0, 1, 1}) {
		t.Error("different partitions accepted")
	}
	if SameClassification([]int{0}, []int{0, 1}) {
		t.Error("length mismatch accepted")
	}
	if !SameClassification(nil, nil) {
		t.Error("empty partitions rejected")
	}
	// Injectivity both ways: a refines b but b doesn't refine a.
	if SameClassification([]int{0, 1, 2}, []int{0, 0, 1}) {
		t.Error("refinement accepted as equality")
	}
	if SameClassification([]int{0, 0, 1}, []int{0, 1, 2}) {
		t.Error("coarsening accepted as equality")
	}
}

func TestSortCRUnknownK(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, tc := range []struct{ n, k int }{
		{1, 1}, {10, 3}, {64, 8}, {200, 5}, {333, 17},
	} {
		truth := oracle.RandomBalanced(tc.n, tc.k, rng)
		s := model.NewSession(truth, model.CR)
		res, err := SortCRUnknownK(s)
		if err != nil {
			t.Fatalf("n=%d k=%d: %v", tc.n, tc.k, err)
		}
		checkResult(t, res, truth)
	}
}

func TestSortCRUnknownKModeCheck(t *testing.T) {
	truth := oracle.NewLabel([]int{0, 1})
	if _, err := SortCRUnknownK(model.NewSession(truth, model.ER)); err == nil {
		t.Fatal("ER session accepted")
	}
}

// TestSortCRUnknownKRoundsComparable: the adaptive variant should not
// spend wildly more rounds than the informed one.
func TestSortCRUnknownKRoundsComparable(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	truth := oracle.RandomBalanced(4096, 8, rng)
	informed := model.NewSession(truth, model.CR)
	if _, err := SortCR(informed, 8); err != nil {
		t.Fatal(err)
	}
	adaptive := model.NewSession(truth, model.CR)
	if _, err := SortCRUnknownK(adaptive); err != nil {
		t.Fatal(err)
	}
	if adaptive.Stats().Rounds > 4*informed.Stats().Rounds+16 {
		t.Errorf("adaptive rounds %d vs informed %d", adaptive.Stats().Rounds, informed.Stats().Rounds)
	}
}

func TestSortConstRoundERAdaptive(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	// ℓ/n = 0.1 < 0.4: the starting guess may or may not fail (success
	// only needs a component of λn/8 per class, which is weaker than
	// ℓ ≥ λn), but the recipe must end with a correct classification.
	truth := oracle.RandomSizes([]int{20, 80, 100}, rng)
	s := model.NewSession(truth, model.ER)
	res, err := SortConstRoundERAdaptive(s, AdaptiveConstRoundConfig{
		D:          10,
		MaxRetries: 2,
		Rng:        rand.New(rand.NewSource(64)),
	})
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res, truth)
}

// TestSortConstRoundERAdaptiveMustHalve forces failures with a skewed
// input and D=1 (sparse random graph): the recipe should still converge
// or exhaust cleanly.
func TestSortConstRoundERAdaptiveMustHalve(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	truth := oracle.RandomSizes([]int{5, 95, 100}, rng) // ℓ/n = 0.025
	s := model.NewSession(truth, model.ER)
	res, err := SortConstRoundERAdaptive(s, AdaptiveConstRoundConfig{
		D:          6,
		MaxRetries: 3,
		Rng:        rand.New(rand.NewSource(66)),
	})
	if err != nil {
		if !errors.Is(err, ErrAdaptiveExhausted) {
			t.Fatalf("unexpected error: %v", err)
		}
		return
	}
	checkResult(t, res, truth)
}

func TestSortConstRoundERAdaptiveValidation(t *testing.T) {
	truth := oracle.NewLabel([]int{0, 0, 1, 1})
	s := model.NewSession(truth, model.ER)
	if _, err := SortConstRoundERAdaptive(s, AdaptiveConstRoundConfig{}); err == nil {
		t.Fatal("nil rng accepted")
	}
	if _, err := SortConstRoundERAdaptive(s, AdaptiveConstRoundConfig{
		StartLambda: 0.7, Rng: rand.New(rand.NewSource(1)),
	}); err == nil {
		t.Fatal("StartLambda 0.7 accepted")
	}
}
