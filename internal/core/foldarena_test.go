package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"ecsort/internal/dist"
	"ecsort/internal/model"
	"ecsort/internal/oracle"
)

// cancelOracle cancels its fold's context once it has answered left more
// tests, so a fold can be cut off inside a logical round. It hides the
// wrapped oracle's batch capability, which keeps the cut deterministic:
// with Workers(1) every test is one Same call in emission order.
type cancelOracle struct {
	model.Oracle
	left   int
	cancel context.CancelFunc // nil when disarmed
}

func (o *cancelOracle) Same(i, j int) bool {
	if o.cancel != nil {
		if o.left--; o.left == 0 {
			o.cancel()
			o.cancel = nil
		}
	}
	return o.Oracle.Same(i, j)
}

// nextFoldTests returns how many tests inc's next fold asks, read off the
// fold itself: inc's answer and pending buffer are restored on a free
// session over o and folded there.
func nextFoldTests(t *testing.T, inc *Incremental, o model.Oracle) int {
	t.Helper()
	twin, err := NewIncremental(model.NewSession(o, model.CR, model.Workers(1)))
	if err != nil {
		t.Fatal(err)
	}
	elems, offs := inc.Flat()
	if err := twin.Restore(elems, offs, inc.PendingElements(), model.Stats{}, 0); err != nil {
		t.Fatal(err)
	}
	if err := twin.Flush(); err != nil {
		t.Fatal(err)
	}
	return int(twin.Stats().Comparisons)
}

// arenaTwin is one sorter of the shared-arena property test: shared
// folds on the arena every sorter borrows, own on its private one.
type arenaTwin struct {
	labels      []int
	shared, own *Incremental
	sharedOrc   *cancelOracle
	ownOrc      *cancelOracle
	added       []int // elements currently added, in no particular order
}

func newArenaTwin(t *testing.T, labels []int) *arenaTwin {
	t.Helper()
	tw := &arenaTwin{labels: labels}
	mk := func() (*Incremental, *cancelOracle) {
		o := &cancelOracle{Oracle: oracle.NewLabel(labels)}
		// Processors(7) splits every wide logical round into several
		// physical ones, so a cancel can land between them as well as in
		// the last one.
		inc, err := NewIncremental(model.NewSession(o, model.CR, model.Workers(1), model.Processors(7)))
		if err != nil {
			t.Fatal(err)
		}
		return inc, o
	}
	tw.shared, tw.sharedOrc = mk()
	tw.own, tw.ownOrc = mk()
	return tw
}

// both applies one step to the two sorters and requires the same error
// outcome from each.
func (tw *arenaTwin) both(t *testing.T, what string, f func(*Incremental) error) error {
	t.Helper()
	errShared, errOwn := f(tw.shared), f(tw.own)
	if (errShared == nil) != (errOwn == nil) {
		t.Fatalf("%s: shared-arena error %v, own-arena error %v", what, errShared, errOwn)
	}
	return errShared
}

// check requires both sorters to hold the same flat answer and cost.
func (tw *arenaTwin) check(t *testing.T, what string) {
	t.Helper()
	se, so := tw.shared.Flat()
	oe, oo := tw.own.Flat()
	if !slices.Equal(se, oe) || !slices.Equal(so, oo) {
		t.Fatalf("%s: flat answers differ:\nshared %v %v\nown    %v %v", what, se, so, oe, oo)
	}
	if a, b := tw.shared.Stats(), tw.own.Stats(); a != b {
		t.Fatalf("%s: stats differ: shared %+v, own %+v", what, a, b)
	}
	if a, b := tw.shared.PendingElements(), tw.own.PendingElements(); !slices.Equal(a, b) {
		t.Fatalf("%s: pending buffers differ: shared %v, own %v", what, a, b)
	}
}

// sliceRanges appends the backing memory range [start, end) of every
// slice with capacity among v's fields, nested structs included.
func sliceRanges(v reflect.Value, dst [][2]uintptr) [][2]uintptr {
	switch v.Kind() {
	case reflect.Struct:
		for i := range v.NumField() {
			dst = sliceRanges(v.Field(i), dst)
		}
	case reflect.Slice:
		if v.Cap() > 0 {
			start := v.Pointer()
			dst = append(dst, [2]uintptr{start, start + uintptr(v.Cap())*v.Type().Elem().Size()})
		}
	}
	return dst
}

// TestSharedFoldArenaMatchesOwn drives eight sorters over different
// universes through random interleaved adds, folds, deletes, class
// invalidations and folds cancelled mid-round, all shared-arena folds on
// one FoldArena. Each sorter's twin folds the same steps with Flush on
// its private arena; after every step the twins must agree on the flat
// answer, the cost and the pending buffer, so borrowing an arena that
// other sorters left in any state changes nothing. After every step the
// arena must also hold no slice of any sorter's pools: it keeps copies,
// so it never pins a dropped sorter's buffers.
func TestSharedFoldArenaMatchesOwn(t *testing.T) {
	sizes := []int{1, 2, 3, 17, 100, 511, 1024, 2048}
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			twins := make([]*arenaTwin, len(sizes))
			for i, n := range sizes {
				d := dist.NewZeta(2)
				if i%2 == 1 {
					d = dist.NewUniform(1 + rng.Intn(12))
				}
				twins[i] = newArenaTwin(t, dist.Labels(d, n, rng))
			}
			var ar FoldArena
			folds, cancelled := 0, 0
			for step := 0; step < 1500; step++ {
				tw := twins[rng.Intn(len(twins))]
				n := len(tw.labels)
				what := fmt.Sprintf("step %d, n=%d", step, n)
				switch op := rng.Intn(10); {
				case op < 4: // add a small batch of elements not yet added
					for b := 1 + rng.Intn(24); b > 0 && len(tw.added) < n; b-- {
						e := rng.Intn(n)
						for tw.shared.Has(e) {
							e = (e + 1) % n
						}
						if tw.both(t, what, func(inc *Incremental) error { return inc.Add(e) }) != nil {
							t.Fatalf("%s: Add(%d) failed", what, e)
						}
						tw.added = append(tw.added, e)
					}
				case op < 6:
					if err := FlushIn(tw.shared, &ar); err != nil {
						t.Fatalf("%s: FlushIn: %v", what, err)
					}
					if err := tw.own.Flush(); err != nil {
						t.Fatalf("%s: Flush: %v", what, err)
					}
					folds++
				case op < 7:
					if len(tw.added) == 0 {
						continue
					}
					i := rng.Intn(len(tw.added))
					e := tw.added[i]
					tw.added = slices.Delete(tw.added, i, i+1)
					if tw.both(t, what, func(inc *Incremental) error { return inc.Delete(e) }) != nil {
						t.Fatalf("%s: Delete(%d) failed", what, e)
					}
				case op < 8:
					_, offs := tw.shared.Flat()
					if len(offs) < 2 {
						continue
					}
					ci := rng.Intn(len(offs) - 1)
					if tw.both(t, what, func(inc *Incremental) error { _, err := inc.InvalidateClass(ci); return err }) != nil {
						t.Fatalf("%s: InvalidateClass(%d) failed", what, ci)
					}
				default: // a fold cancelled mid-round, then retried
					tests := nextFoldTests(t, tw.shared, oracle.NewLabel(tw.labels))
					if tests < 2 {
						continue
					}
					cut := 1 + rng.Intn(tests-1)
					err := tw.both(t, what, func(inc *Incremental) error {
						ctx, cancel := context.WithCancel(context.Background())
						orc := tw.sharedOrc
						fold := func() error { return FlushIn(inc, &ar) }
						if inc == tw.own {
							orc, fold = tw.ownOrc, inc.Flush
						}
						orc.left, orc.cancel = cut, cancel
						inc.SetContext(ctx)
						defer func() {
							cancel()
							orc.cancel = nil
							inc.SetContext(context.Background())
						}()
						return fold()
					})
					if err == nil {
						t.Fatalf("%s: fold cancelled after %d of %d tests succeeded", what, cut, tests)
					}
					tw.check(t, what+" (cancelled)")
					if err := FlushIn(tw.shared, &ar); err != nil {
						t.Fatalf("%s: retried FlushIn: %v", what, err)
					}
					if err := tw.own.Flush(); err != nil {
						t.Fatalf("%s: retried Flush: %v", what, err)
					}
					cancelled++
				}
				tw.check(t, what)
				held := sliceRanges(reflect.ValueOf(ar), nil)
				for _, other := range twins {
					for _, pool := range sliceRanges(reflect.ValueOf(*other.shared), nil) {
						for _, r := range held {
							if r[0] < pool[1] && pool[0] < r[1] {
								t.Fatalf("%s: the arena holds a slice of a sorter's pools after the fold", what)
							}
						}
					}
				}
			}
			if folds == 0 || cancelled == 0 {
				t.Fatalf("degenerate run: %d folds, %d cancelled folds", folds, cancelled)
			}
		})
	}
}
