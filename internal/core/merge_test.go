package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"ecsort/internal/model"
	"ecsort/internal/oracle"
	rt "ecsort/internal/runtime"
)

// nearLabels is a non-transitive oracle: elements whose labels differ by
// at most 1 count as the same. One class can then match several classes
// of another answer, so a merge's union-find joins chains of classes,
// including classes of one answer through a class of another.
type nearLabels []int

func (l nearLabels) N() int { return len(l) }

func (l nearLabels) Same(i, j int) bool {
	d := l[i] - l[j]
	return d >= -1 && d <= 1
}

// randomLevel cuts a random subset of the elements 0..len(labels)-1 into
// na nonempty answers, each grouping its elements by label in order of
// first appearance.
func randomLevel(rng *rand.Rand, labels []int, na int) []Answer {
	perm := rng.Perm(len(labels))
	sizes := make([]int, na)
	for i := range sizes {
		sizes[i] = 1
	}
	for extra := rng.Intn(len(labels) - na + 1); extra > 0; extra-- {
		sizes[rng.Intn(na)]++
	}
	answers := make([]Answer, na)
	for i, size := range sizes {
		answers[i] = buildAnswer(perm[:size], labels)
		perm = perm[size:]
	}
	return answers
}

// loadLevel makes answers the arena's current level, in the buffers
// firstLevel writes level 1 into.
func loadLevel(ar *crArena, answers []Answer) {
	l := level{elems: ar.elems[0][:0], offs: append(ar.offs[0][:0], 0), bound: append(ar.bound[0][:0], 0)}
	for _, a := range answers {
		l.elems, l.offs = appendAnswer(a, l.elems, l.offs)
		l.seal()
	}
	ar.elems[0], ar.offs[0], ar.bound[0], ar.cur = l.elems, l.offs, l.bound, 0
}

// refMerge is the test's own group merge, written without the engine: a
// plain union-find over the group's (answer, class) slots, driven by Same
// on every cross-answer representative pair. It returns the merged
// classes, in order of each class's first slot with members in slot
// order, and the Σ_{u<v} K(u)·K(v) tests it asked.
func refMerge(o model.Oracle, group []Answer) ([][]int, int64) {
	var slots [][]int // the members of each slot
	var owner []int   // the answer each slot belongs to
	for u, a := range group {
		for i := range a.K() {
			slots = append(slots, a.Class(i))
			owner = append(owner, u)
		}
	}
	parent := make([]int, len(slots))
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			x = parent[x]
		}
		return x
	}
	var tests int64
	for i := range slots {
		for j := i + 1; j < len(slots); j++ {
			if owner[i] == owner[j] {
				continue
			}
			tests++
			if o.Same(slots[i][0], slots[j][0]) {
				parent[find(j)] = find(i)
			}
		}
	}
	classOf := map[int]int{} // root slot → output class
	var classes [][]int
	for i, members := range slots {
		r := find(i)
		c, ok := classOf[r]
		if !ok {
			c = len(classes)
			classOf[r] = c
			classes = append(classes, nil)
		}
		classes[c] = append(classes[c], members...)
	}
	return classes, tests
}

// TestMergeLevelMatchesGroupMerges checks both CR merge entry points
// against refMerge: the next level mergeGroupsCR builds must hold, as
// answer i, exactly refMerge's merge of group i — the same classes in
// the same order — at every width, as must MergeGroupCR of the group
// alone, and both must ask refMerge's number of tests; a level's stats
// must not depend on the width. Levels have random shapes, groups 2–7
// answers, and a trailing short group or a carried single answer, under
// a label oracle and a non-transitive one, with and without a processor
// budget that splits the level's round.
func TestMergeLevelMatchesGroupMerges(t *testing.T) {
	pool := rt.NewPool(4)
	defer pool.Close()
	widths := []struct {
		name string
		opts []model.Option
	}{
		{"workers=1", []model.Option{model.Workers(1)}},
		{"workers=2", []model.Option{model.Workers(2), model.WithPool(pool)}},
		{"workers=4", []model.Option{model.Workers(4), model.WithPool(pool)}},
	}
	rng := rand.New(rand.NewSource(43))
	for trial := range 90 {
		g := 2 + trial%6
		n := 16 + rng.Intn(400)
		labels := make([]int, n)
		k := 1 + rng.Intn(12)
		for i := range labels {
			labels[i] = rng.Intn(k)
		}
		// A random answer count, then one that leaves a single answer to
		// carry over, then one that leaves a short last group.
		na := 1 + rng.Intn(n/2)
		switch trial % 3 {
		case 1:
			na = na/g*g + 1
		case 2:
			na = na/g*g + g - 1
		}
		na = min(na, n/2)
		answers := randomLevel(rng, labels, na)
		for _, o := range []model.Oracle{oracle.NewLabel(labels), nearLabels(labels)} {
			var want [][][]int
			var wantComparisons int64
			for lo := 0; lo < na; lo += g {
				group := answers[lo:min(lo+g, na)]
				classes, tests := refMerge(o, group)
				want = append(want, classes)
				wantComparisons += tests
				s := model.NewSession(o, model.CR, model.Workers(1))
				merged, err := MergeGroupCR(s, group)
				if err != nil {
					t.Fatal(err)
				}
				if got := merged.Classes(); !reflect.DeepEqual(got, classes) {
					t.Fatalf("trial %d, %T: MergeGroupCR of answers %d..%d = %v, the reference gives %v", trial, o, lo, lo+len(group)-1, got, classes)
				}
				if got := s.Stats().Comparisons; got != tests {
					t.Fatalf("trial %d, %T: MergeGroupCR of answers %d..%d made %d comparisons, the reference %d", trial, o, lo, lo+len(group)-1, got, tests)
				}
			}
			for _, procs := range []int{0, 97} {
				var first model.Stats
				for wi, w := range widths {
					opts := append([]model.Option{model.Processors(procs)}, w.opts...)
					s := model.NewSession(o, model.CR, opts...)
					ar := newCRArena(n)
					loadLevel(ar, answers)
					got, err := mergeGroupsCR(s, ar, g)
					if err != nil {
						t.Fatal(err)
					}
					where := fmt.Sprintf("trial %d, %T, procs=%d, %s", trial, o, procs, w.name)
					if got != len(want) {
						t.Fatalf("%s: %d answers, want %d", where, got, len(want))
					}
					next := ar.current()
					for i := range want {
						if classes := next.answer(i).Classes(); !reflect.DeepEqual(classes, want[i]) {
							t.Fatalf("%s: answer %d (g=%d, na=%d) = %v, the reference gives %v", where, i, g, na, classes, want[i])
						}
					}
					st := s.Stats()
					if st.Comparisons != wantComparisons {
						t.Errorf("%s: %d comparisons, the reference asks %d", where, st.Comparisons, wantComparisons)
					}
					if wi == 0 {
						first = st
					} else if st != first {
						t.Errorf("%s: stats %+v, %s gives %+v", where, st, widths[0].name, first)
					}
				}
			}
		}
	}
}

// TestCancelOnLastTestCommitsNothing cancels the context on the last
// test of a sort or fold, after the session's last check before a
// physical round. SortCR, SortCRUnknownK and an incremental fold must
// each still return context.Canceled instead of an answer built from
// that round, and the fold must leave the sorter's answer and pending
// buffer as they were. A fold of two rounds is also cancelled on the
// last test of its first round.
func TestCancelOnLastTestCommitsNothing(t *testing.T) {
	labels := make([]int, 64)
	for i := range labels {
		labels[i] = i * 7 % 4
	}
	// armed returns a session whose oracle cancels its context on test
	// number last, counting from the session's first test.
	armed := func(labels []int, last int64) (*model.Session, *cancelOracle) {
		ctx, cancel := context.WithCancel(context.Background())
		t.Cleanup(cancel)
		o := &cancelOracle{Oracle: oracle.NewLabel(labels), left: int(last), cancel: cancel}
		return model.NewSession(o, model.CR, model.Workers(1), model.WithContext(ctx)), o
	}
	for _, tc := range []struct {
		name string
		sort func(*model.Session) (Result, error)
	}{
		{"SortCR", func(s *model.Session) (Result, error) { return SortCR(s, 4) }},
		{"SortCRUnknownK", SortCRUnknownK},
	} {
		free := model.NewSession(oracle.NewLabel(labels), model.CR, model.Workers(1))
		if _, err := tc.sort(free); err != nil {
			t.Fatal(err)
		}
		s, o := armed(labels, free.Stats().Comparisons)
		res, err := tc.sort(s)
		if o.cancel != nil {
			t.Fatalf("%s: the sort ended before its last test", tc.name)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: cancelled on its last test, returned %d classes and error %v, want context.Canceled", tc.name, len(res.Classes), err)
		}
	}

	// Each fold folds elements 24..39 into the answer over 0..23. Under
	// labels every one of them matches a class, so the fold is one round;
	// under mixed the first 24 elements hold two labels and the pending
	// ones four, so 8 match nothing and a second round follows.
	mixed := make([]int, 64)
	for i := range mixed {
		mixed[i] = i % 2
		if i >= 24 {
			mixed[i] = i % 4
		}
	}
	for _, tc := range []struct {
		name   string
		labels []int
		round1 bool // cancel on the last test of round 1, not of the fold
	}{
		{"one-round fold", labels, false},
		{"two-round fold, round 1", mixed, true},
		{"two-round fold", mixed, false},
	} {
		s, o := armed(tc.labels, 0)
		o.cancel = nil // disarmed until the last fold
		inc, err := NewIncremental(s)
		if err != nil {
			t.Fatal(err)
		}
		for e := range 40 {
			if err := inc.Add(e); err != nil {
				t.Fatal(err)
			}
			if e == 23 {
				if err := inc.Flush(); err != nil {
					t.Fatal(err)
				}
			}
		}
		elems, offs := inc.Flat()
		elems, offs = slices.Clone(elems), slices.Clone(offs)
		pending := slices.Clone(inc.PendingElements())
		p, k := len(pending), len(offs)-1
		cut := nextFoldTests(t, inc, oracle.NewLabel(tc.labels))
		if tc.round1 {
			if cut-p*k < 1 {
				t.Fatalf("%s: the fold asks %d tests, no second round after its %d", tc.name, cut, p*k)
			}
			cut = p * k
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		inc.SetContext(ctx)
		o.left, o.cancel = cut, cancel
		if err := inc.Flush(); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: cancelled on test %d, returned %v, want context.Canceled", tc.name, cut, err)
		}
		if o.cancel != nil {
			t.Fatalf("%s: the fold ended before its test %d", tc.name, cut)
		}
		if e, f := inc.Flat(); !slices.Equal(e, elems) || !slices.Equal(f, offs) {
			t.Errorf("%s: cancelled fold changed the answer: %v %v, was %v %v", tc.name, e, f, elems, offs)
		}
		if got := inc.PendingElements(); !slices.Equal(got, pending) {
			t.Errorf("%s: cancelled fold changed the pending buffer: %v, was %v", tc.name, got, pending)
		}
	}
}
