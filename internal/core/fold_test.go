package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ecsort/internal/dist"
	"ecsort/internal/model"
	"ecsort/internal/oracle"
	rt "ecsort/internal/runtime"
)

// TestFoldMatchesGroupMergeAndCost pins the incremental fold against the
// one-round group merge and against the cost of the knowledge-graph rule.
// Sorters over random label partitions — uniform, zeta(2), all distinct
// and one class — take batches of 1–200 elements in random arrival order,
// with deletes and class invalidations between folds, at Workers(1) and
// at Workers(4) on a 4-wide pool, with and without Processors(97). Before
// each fold of p pending elements into k classes, u counts the pending
// elements whose label no class holds. After the fold:
//   - the flat answer equals MergeGroupCR, on a fresh session, of the
//     group the one-round fold merged: the pending singletons, then the
//     answer;
//   - the fold asked p·k + u(u−1)/2 tests, never more than the one-round
//     p·k + p(p−1)/2;
//   - its physical rounds exceed the one-round ⌈(p·k + p(p−1)/2)/P⌉ by at
//     most one.
func TestFoldMatchesGroupMergeAndCost(t *testing.T) {
	pool := rt.NewPool(4)
	defer pool.Close()
	const n = 600
	rng := rand.New(rand.NewSource(61))
	partitions := []struct {
		name   string
		labels func() []int
	}{
		{"uniform", func() []int { return dist.Labels(dist.NewUniform(1+rng.Intn(16)), n, rng) }},
		{"zeta", func() []int { return dist.Labels(dist.NewZeta(2), n, rng) }},
		{"distinct", func() []int { return rng.Perm(n) }},
		{"one-class", func() []int { return make([]int, n) }},
	}
	widths := []struct {
		name string
		opts []model.Option
	}{
		{"workers=1", []model.Option{model.Workers(1)}},
		{"workers=4", []model.Option{model.Workers(4), model.WithPool(pool)}},
	}
	folds, twoRound := 0, 0
	for _, part := range partitions {
		for _, w := range widths {
			for _, procs := range []int{0, 97} {
				for trial := range 3 {
					labels := part.labels()
					o := oracle.NewLabel(labels)
					opts := append([]model.Option{model.Processors(procs)}, w.opts...)
					inc, err := NewIncremental(model.NewSession(o, model.CR, opts...))
					if err != nil {
						t.Fatal(err)
					}
					perRound := int64(n) // P, the tests one physical round holds
					if procs > 0 {
						perRound = int64(procs)
					}
					free := rng.Perm(n) // elements not in the sorter
					var added []int     // elements in it
					for fold := range 8 {
						where := fmt.Sprintf("%s/%s/procs=%d/trial=%d, fold %d", part.name, w.name, procs, trial, fold)
						for b := 1 + rng.Intn(200); b > 0 && len(free) > 0; b-- {
							i := rng.Intn(len(free))
							e := free[i]
							free = slices.Delete(free, i, i+1)
							if err := inc.Add(e); err != nil {
								t.Fatal(err)
							}
							added = append(added, e)
						}
						for d := rng.Intn(4); d > 0 && len(added) > 0; d-- {
							i := rng.Intn(len(added))
							if err := inc.Delete(added[i]); err != nil {
								t.Fatal(err)
							}
							free = append(free, added[i])
							added = slices.Delete(added, i, i+1)
						}
						if _, offs := inc.Flat(); len(offs) > 1 && rng.Intn(2) == 0 {
							if _, err := inc.InvalidateClass(rng.Intn(len(offs) - 1)); err != nil {
								t.Fatal(err)
							}
						}
						pending := slices.Clone(inc.PendingElements())
						if len(pending) == 0 {
							continue
						}
						elems, offs := inc.Flat()
						var classes [][]int
						known := map[int]bool{} // the labels the answer's classes hold
						for c := 0; c+1 < len(offs); c++ {
							cls := elems[offs[c]:offs[c+1]]
							classes = append(classes, cls)
							known[labels[cls[0]]] = true
						}
						p, k, u := int64(len(pending)), int64(len(classes)), int64(0)
						group := make([]Answer, 0, len(pending)+1)
						for _, e := range pending {
							if !known[labels[e]] {
								u++
							}
							group = append(group, NewAnswer([][]int{{e}}))
						}
						want, err := MergeGroupCR(model.NewSession(o, model.CR, model.Workers(1)), append(group, NewAnswer(classes)))
						if err != nil {
							t.Fatal(err)
						}

						before := inc.Stats()
						if err := inc.Flush(); err != nil {
							t.Fatalf("%s: %v", where, err)
						}
						after := inc.Stats()
						folds++
						if u >= 2 {
							twoRound++
						}
						gotElems, gotOffs := inc.Flat()
						wantElems, wantOffs := want.Flat()
						if !slices.Equal(gotElems, wantElems) || !slices.Equal(gotOffs, wantOffs) {
							t.Fatalf("%s: folded answer %v %v, MergeGroupCR gives %v %v", where, gotElems, gotOffs, wantElems, wantOffs)
						}
						tests := after.Comparisons - before.Comparisons
						oneRound := p*k + p*(p-1)/2
						if cost := p*k + u*(u-1)/2; tests != cost {
							t.Fatalf("%s: p=%d, k=%d, u=%d: the fold asked %d tests, want p·k + u(u−1)/2 = %d", where, p, k, u, tests, cost)
						}
						if tests > oneRound {
							t.Fatalf("%s: the fold asked %d tests, more than the one-round %d", where, tests, oneRound)
						}
						bound := (oneRound+perRound-1)/perRound + 1
						if rounds := int64(after.Rounds - before.Rounds); rounds > bound {
							t.Fatalf("%s: p=%d, k=%d, u=%d: the fold ran %d physical rounds, the one-round fold %d", where, p, k, u, rounds, bound-1)
						}
					}
				}
			}
		}
	}
	if folds < 300 || twoRound == 0 {
		t.Fatalf("degenerate run: %d folds, %d of them in two rounds", folds, twoRound)
	}
	t.Logf("%d folds, %d of them in two rounds", folds, twoRound)
}
