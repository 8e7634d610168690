package core

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"ecsort/internal/graphs"
	"ecsort/internal/model"
	"ecsort/internal/oracle"
)

func TestTwoClassBalanced(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, sizes := range [][]int{
		{50, 50}, {99, 1}, {70, 30}, {100}, // last: single class
	} {
		truth := oracle.RandomSizes(sizes, rng)
		s := model.NewSession(truth, model.ER)
		res, err := SortTwoClassER(s, 5, rand.New(rand.NewSource(32)))
		if err != nil {
			t.Fatalf("sizes %v: %v", sizes, err)
		}
		checkResult(t, res, truth)
	}
}

// TestTwoClassConstantRounds: rounds must not grow with n, even with a
// tiny minority class (ℓ = 1) — the case Theorem 4 cannot handle.
func TestTwoClassConstantRounds(t *testing.T) {
	roundsAt := func(n int) int {
		labels := make([]int, n)
		labels[n/2] = 1 // a single minority element
		truth := oracle.NewLabel(labels)
		s := model.NewSession(truth, model.ER)
		res, err := SortTwoClassER(s, 5, rand.New(rand.NewSource(int64(n))))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(res.Classes) != 2 {
			t.Fatalf("n=%d: %d classes", n, len(res.Classes))
		}
		return s.Stats().Rounds
	}
	small := roundsAt(400)
	large := roundsAt(6400)
	if large > 2*small+20 {
		t.Errorf("rounds grew with n: %d → %d", small, large)
	}
}

func TestTwoClassTinyInputs(t *testing.T) {
	for _, labels := range [][]int{{0}, {0, 0}, {0, 1}} {
		truth := oracle.NewLabel(labels)
		s := model.NewSession(truth, model.ER)
		res, err := SortTwoClassER(s, 3, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatalf("labels %v: %v", labels, err)
		}
		checkResult(t, res, truth)
	}
	empty := model.NewSession(oracle.NewLabel(nil), model.ER)
	res, err := SortTwoClassER(empty, 3, rand.New(rand.NewSource(1)))
	if err != nil || len(res.Classes) != 0 {
		t.Fatalf("empty: %v %v", res.Classes, err)
	}
}

func TestTwoClassValidation(t *testing.T) {
	truth := oracle.NewLabel([]int{0, 1})
	cr := model.NewSession(truth, model.CR)
	if _, err := SortTwoClassER(cr, 1, rand.New(rand.NewSource(1))); err == nil {
		t.Error("CR session accepted")
	}
	er := model.NewSession(truth, model.ER)
	if _, err := SortTwoClassER(er, 1, nil); err == nil {
		t.Error("nil rng accepted")
	}
}

// TestTwoClassQuick: arbitrary two-class profiles, including extreme
// skews, classify correctly.
func TestTwoClassQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(200)
		minority := rng.Intn(n/2 + 1)
		labels := make([]int, n)
		for i := 0; i < minority; i++ {
			labels[i] = 1
		}
		rng.Shuffle(n, func(i, j int) { labels[i], labels[j] = labels[j], labels[i] })
		truth := oracle.NewLabel(labels)
		s := model.NewSession(truth, model.ER)
		res, err := SortTwoClassER(s, 6, rand.New(rand.NewSource(seed^0x1234)))
		if err != nil {
			return false
		}
		return SameClassification(res.Labels(n), labels)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestTwoClassBrokenPromise: with three classes the promise is violated;
// the algorithm may return a wrong partition, but Certify must catch it.
func TestTwoClassBrokenPromise(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	truth := oracle.RandomSizes([]int{80, 10, 10}, rng)
	s := model.NewSession(truth, model.ER)
	res, err := SortTwoClassER(s, 5, rand.New(rand.NewSource(34)))
	if err != nil {
		t.Fatal(err)
	}
	correct := SameClassification(res.Labels(100), truth.Labels())
	certErr := Certify(model.NewSession(truth, model.ER), res.Classes)
	if correct && certErr != nil {
		t.Fatalf("correct answer rejected: %v", certErr)
	}
	if !correct && certErr == nil {
		t.Fatal("wrong answer passed certification")
	}
}

// TestTwoClassLumpsUnmatched: under a broken promise (k = 3) the
// majority class comes back exactly, and the two minorities, which both
// fail the sweep, come back lumped into one class.
func TestTwoClassLumpsUnmatched(t *testing.T) {
	truth := oracle.RandomSizes([]int{80, 10, 10}, rand.New(rand.NewSource(65)))
	s := model.NewSession(truth, model.ER)
	res, err := SortTwoClassER(s, 5, rand.New(rand.NewSource(66)))
	if err != nil {
		t.Fatal(err)
	}
	// Class 0 of RandomSizes is the majority; 1 and 2 are lumped.
	want := truth.Labels()
	for i, l := range want {
		want[i] = min(l, 1)
	}
	if got := res.Labels(truth.N()); !SameClassification(got, want) {
		t.Fatalf("classification = %v, want %v", got, want)
	}
}

// TestTwoClassSmallMajorityRedraws: when the largest component stays
// under n/20, SortTwoClassER lumps nothing and draws again until its
// retries are spent, testing only the d(0.4)·n edges of each draw.
func TestTwoClassSmallMajorityRedraws(t *testing.T) {
	// Every element is its own class, so every component is a
	// singleton, under the threshold 60/20 = 3.
	const n, retries = 60, 2
	labels := make([]int, n)
	for i := range labels {
		labels[i] = i
	}
	s := model.NewSession(oracle.NewLabel(labels), model.ER)
	_, err := SortTwoClassER(s, retries, rand.New(rand.NewSource(71)))
	if !errors.Is(err, ErrConstRoundFailed) {
		t.Fatalf("err = %v, want ErrConstRoundFailed", err)
	}
	want := int64((retries + 1) * graphs.DegreeForLambda(0.4) * n)
	if got := s.Stats().Comparisons; got != want {
		t.Fatalf("comparisons = %d, want %d", got, want)
	}
}
