package core

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"ecsort/internal/dist"
	"ecsort/internal/model"
	"ecsort/internal/oracle"
	rt "ecsort/internal/runtime"
)

// Allocation regression guards for the flat merge engine. The map-keyed
// engine these bounds replaced spent 213 allocs per MergeGroupCR of 24
// answers and ~8.7k allocs per 128-element flush; the flat engine's
// steady state is the output answer's backing (MergeGroupCR) and
// amortized pool growth (Flush). Workers(1) runs every round and merge
// pass on the calling goroutine, so no runtime pool is started and its
// warm-up cannot show in the counts.

func TestMergeGroupCRAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	truth := oracle.RandomBalanced(512, 8, rand.New(rand.NewSource(31)))
	s := model.NewSession(truth, model.CR, model.Workers(1))
	ar := newCRArena(512)
	na, err := ar.firstLevel(s, ar.sc.pairs, ar.sc.results)
	if err != nil {
		t.Fatal(err)
	}
	for na > 24 {
		if na, err = mergePairsCR(s, ar); err != nil {
			t.Fatal(err)
		}
	}
	// Copy out of the arena: the benchmark group must survive arena reuse.
	lvl := ar.current()
	group := make([]Answer, na)
	for i := range group {
		group[i] = NewAnswer(lvl.answer(i).Classes())
	}
	if _, err := MergeGroupCR(s, group); err != nil { // warm the scratch pool
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := MergeGroupCR(s, group); err != nil {
			t.Fatal(err)
		}
	})
	// Steady state: the merged answer's elems+offs plus pool jitter.
	if allocs > 8 {
		t.Errorf("MergeGroupCR steady state = %v allocs/op, want <= 8 (was 213 before the flat engine)", allocs)
	}
}

func TestSortERAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	// 1024 elements take ten merge levels and 512 take nine, so reuses
	// start with the arena's buffers in both parities: the level being
	// built must never share headers with the level its plans index.
	for _, n := range []int{1024, 512} {
		truth := oracle.RandomBalanced(n, 6, rand.New(rand.NewSource(17)))
		labels := truth.Labels()
		elemSeen, labelSeen := make([]bool, n), make([]bool, 6)
		s := model.NewSession(truth, model.ER, model.Workers(1))
		ar := newERArena(n)
		sorts := 0
		sortAndCheck := func() {
			final, err := sortERArena(s, ar)
			if err != nil {
				t.Fatal(err)
			}
			sorts++
			if msg := partitionMismatch(final, labels, elemSeen, labelSeen); msg != "" {
				t.Fatalf("n=%d, sort %d on one arena: %s", n, sorts, msg)
			}
		}
		sortAndCheck() // warm the arena
		allocs := testing.AllocsPerRun(10, sortAndCheck)
		// Steady state: every rotation round and pair merge runs out of the
		// arena (the map-keyed pairPlan path allocated per merge AND per
		// rotation round).
		if allocs > 2 {
			t.Errorf("n=%d: SortER steady state = %v allocs/op, want <= 2", n, allocs)
		}
	}
}

// TestPairPlanPointerFree pins the ER plan layout the arena is sized
// for: up to ⌈n/4⌉ plans per level at 24 B each, holding only int32
// indices, so the plan list gives the GC nothing to scan.
func TestPairPlanPointerFree(t *testing.T) {
	typ := reflect.TypeOf(pairPlan{})
	if typ.Size() != 24 {
		t.Errorf("pairPlan is %d B, want 24", typ.Size())
	}
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); f.Type.Kind() != reflect.Int32 {
			t.Errorf("pairPlan.%s is %s, want int32", f.Name, f.Type)
		}
	}
}

// TestLevelsPointerFree pins the flat merge-tree level layout: every
// field of levels is a number or an array or slice of numbers, so a
// level stores no per-answer header and its pools give the GC nothing
// to scan.
func TestLevelsPointerFree(t *testing.T) {
	typ := reflect.TypeOf(levels{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		elem := f.Type
		for elem.Kind() == reflect.Array || elem.Kind() == reflect.Slice {
			elem = elem.Elem()
		}
		if k := elem.Kind(); k < reflect.Bool || k > reflect.Complex128 {
			t.Errorf("levels.%s has element type %s, want a pointer-free number", f.Name, elem)
		}
	}
}

// partitionMismatch describes how a differs from the partition labels
// induces on 0..len(labels)-1, or returns "" when they agree. It
// allocates nothing, so it can run inside AllocsPerRun; labels must be
// 0..len(labelSeen)-1.
func partitionMismatch(a Answer, labels []int, elemSeen, labelSeen []bool) string {
	clear(elemSeen)
	clear(labelSeen)
	if a.Size() != len(labels) {
		return "answer does not cover every element"
	}
	for c := 0; c < a.K(); c++ {
		l := labels[a.Rep(c)]
		if labelSeen[l] {
			return "two classes share a label"
		}
		labelSeen[l] = true
		for _, e := range a.Class(c) {
			if elemSeen[e] {
				return "an element appears twice"
			}
			elemSeen[e] = true
			if labels[e] != l {
				return "a class mixes labels"
			}
		}
	}
	return ""
}

// TestSortBytesPerCall bounds the heap bytes one public SortER or
// SortCRUnknownK call allocates on n = 2^14 zeta(2) labels, serial and
// at Workers(4) on a 4-wide pool, where the CR merge levels' per-group
// passes run in parallel chunks and must not bring scratch of their own.
// Each call builds its own arena, sized once from n; before the arenas
// were presized, slice growth cost ~810 B per element (ER) and ~400
// (CR); before the first merge level skipped the stored singleton
// level, the arenas cost ~165 (ER) and ~155 (CR); and while each level
// stored a 48-byte answer header and a leading offset per answer, ~117
// (ER) and ~109 (CR).
func TestSortBytesPerCall(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes are not meaningful under the race detector")
	}
	const n = 1 << 14
	const maxBytesPerElem = 96 // measured: ~80 (ER), ~67 (CRUnknownK)
	truth := oracle.NewLabel(dist.Labels(dist.NewZeta(2), n, rand.New(rand.NewSource(7))))
	pool := rt.NewPool(4)
	defer pool.Close()
	for _, width := range []struct {
		name string
		opts []model.Option
	}{
		{"Workers(1)", []model.Option{model.Workers(1)}},
		{"Workers(4)", []model.Option{model.Workers(4), model.WithPool(pool)}},
	} {
		for _, tc := range []struct {
			name string
			mode model.Mode
			sort func(*model.Session) (Result, error)
		}{
			{"SortER", model.ER, SortER},
			{"SortCRUnknownK", model.CR, SortCRUnknownK},
		} {
			best := uint64(math.MaxUint64)
			var before, after runtime.MemStats
			for run := 0; run < 3; run++ { // the minimum discounts stray allocations
				s := model.NewSession(truth, tc.mode, width.opts...)
				runtime.ReadMemStats(&before)
				if _, err := tc.sort(s); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&after)
				best = min(best, after.TotalAlloc-before.TotalAlloc)
			}
			if perElem := best / n; perElem > maxBytesPerElem {
				t.Errorf("%s at %s allocates %d B per call (%d B per element), want <= %d B per element",
					tc.name, width.name, best, perElem, maxBytesPerElem)
			}
		}
	}
}

// TestIncrementalFlushAllocs holds the fold's steady state at ~0 allocs,
// both on the sorter's private arena (Flush) and on an arena shared with
// a second sorter that folds before every fold of the first (FlushIn),
// as a service shard's collections do.
func TestIncrementalFlushAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	newSorter := func(seed int64) *Incremental {
		truth := oracle.RandomBalanced(1<<16, 8, rand.New(rand.NewSource(seed)))
		inc, err := NewIncremental(model.NewSession(truth, model.CR, model.Workers(1)))
		if err != nil {
			t.Fatal(err)
		}
		return inc
	}
	for _, shared := range []bool{false, true} {
		name := "Flush"
		if shared {
			name = "FlushIn/shared"
		}
		t.Run(name, func(t *testing.T) {
			inc, other := newSorter(33), newSorter(34)
			var ar FoldArena
			next := 0
			// step adds count elements and folds them: on inc's own arena,
			// or on ar right after other folds the same elements on it.
			step := func(count int) {
				for i := 0; i < count; i++ {
					if err := inc.Add(next); err != nil {
						t.Fatal(err)
					}
					if shared {
						if err := other.Add(next); err != nil {
							t.Fatal(err)
						}
					}
					next++
				}
				var err error
				if shared {
					if err = FlushIn(other, &ar); err == nil {
						err = FlushIn(inc, &ar)
					}
				} else {
					err = inc.Flush()
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			step(2048) // reach steady state: all 8 classes discovered, pools warm
			allocs := testing.AllocsPerRun(50, func() { step(128) })
			// Steady state is zero; allow amortized doubling of the answer pools.
			if allocs > 4 {
				t.Errorf("Add*128+fold steady state = %v allocs/op, want <= 4 (was ~8.7k before the flat engine)", allocs)
			}
		})
	}
}
