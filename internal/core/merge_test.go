package core

import (
	"fmt"
	"math/rand"
	"reflect"
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

// TestMergeLevelMatchesGroupMerges checks the level passes against the
// single-group path: the next level mergeGroupsCR builds must hold, as
// answer i, exactly the answer MergeGroupCR makes of group i — the same
// classes in the same order — at every width, and a level's stats must
// not depend on the width. Levels have random shapes, groups 2–7
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
				s := model.NewSession(o, model.CR, model.Workers(1))
				merged, err := MergeGroupCR(s, answers[lo:min(lo+g, na)])
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, merged.Classes())
				wantComparisons += s.Stats().Comparisons
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
							t.Fatalf("%s: answer %d (g=%d, na=%d) = %v, MergeGroupCR gives %v", where, i, g, na, classes, want[i])
						}
					}
					st := s.Stats()
					if st.Comparisons != wantComparisons {
						t.Errorf("%s: %d comparisons, the groups' merges make %d", where, st.Comparisons, wantComparisons)
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
