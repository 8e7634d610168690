package service

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"ecsort/internal/algo"
	"ecsort/internal/model"
	"ecsort/internal/oracle"
)

// cancelOnLast answers like base and, once armed, cancels its context on
// test number last; with lie set it answers false from that test on, as
// a tripped oracle.Resilient does. It counts every test it answers.
type cancelOnLast struct {
	base   model.Oracle
	calls  int
	armed  bool
	last   int
	lie    bool
	cancel context.CancelFunc
}

func (o *cancelOnLast) N() int { return o.base.N() }

func (o *cancelOnLast) Same(i, j int) bool {
	o.calls++
	if !o.armed || o.calls < o.last {
		return o.base.Same(i, j)
	}
	if o.calls == o.last {
		o.cancel()
	}
	if o.lie {
		return false
	}
	return o.base.Same(i, j)
}

// TestBatchFoldRefusesCancelledSort cancels a batch regimen's fold on
// its sort's last test. The session checks the context only before each
// physical round, so the sort can still return an answer; the fold must
// fail with context.Canceled instead and leave the answer, the pending
// count, the stats and the fold count as they were.
func TestBatchFoldRefusesCancelledSort(t *testing.T) {
	labels := labelsFor(64, 4, 9)
	for _, name := range []string{"er", "cr", "cr-unknown-k", "const-round-er"} {
		for _, lie := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/lie=%v", name, lie), func(t *testing.T) {
				alg, err := algo.ByName(name, algo.Hints{K: 4, Lambda: 0.2, Seed: 3})
				if err != nil {
					t.Fatal(err)
				}
				// newFolded returns a sorter that has folded elements
				// 0..39 and holds 40..63 pending.
				newFolded := func() (*batchSorter, *cancelOnLast) {
					o := &cancelOnLast{base: oracle.NewLabel(labels), lie: lie}
					b := newBatchSorter(alg, o, context.Background(), []model.Option{model.Workers(1)})
					for e := range labels {
						if err := b.Add(e); err != nil {
							t.Fatal(err)
						}
						if e == 39 {
							if err := b.Flush(nil); err != nil {
								t.Fatal(err)
							}
						}
					}
					return b, o
				}
				// A twin counts the tests of the second fold.
				twin, to := newFolded()
				to.calls = 0
				if err := twin.Flush(nil); err != nil {
					t.Fatal(err)
				}
				b, o := newFolded()
				elems, offs := b.Flat()
				elems, offs = slices.Clone(elems), slices.Clone(offs)
				pending, stats, flushes := b.Pending(), b.Stats(), b.Flushes()
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				b.SetContext(ctx)
				o.calls, o.armed, o.last, o.cancel = 0, true, to.calls, cancel
				if err := b.Flush(nil); !errors.Is(err, context.Canceled) {
					e, f := b.Flat()
					t.Errorf("fold cancelled on its last test returned %v and committed %d classes over %d elements, want context.Canceled", err, len(f)-1, len(e))
				}
				if o.calls != to.calls {
					t.Fatalf("the cancelled fold asked %d tests, its twin %d", o.calls, to.calls)
				}
				if e, f := b.Flat(); !slices.Equal(e, elems) || !slices.Equal(f, offs) {
					t.Errorf("cancelled fold changed the answer to %v %v, was %v %v", e, f, elems, offs)
				}
				if b.Pending() != pending || b.Stats() != stats || b.Flushes() != flushes {
					t.Errorf("cancelled fold changed pending/stats/flushes to %d/%+v/%d, was %d/%+v/%d",
						b.Pending(), b.Stats(), b.Flushes(), pending, stats, flushes)
				}
			})
		}
	}
}
