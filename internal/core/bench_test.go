package core

import (
	"fmt"
	"math/rand"
	"testing"

	"ecsort/internal/dist"
	"ecsort/internal/model"
	"ecsort/internal/oracle"
	rt "ecsort/internal/runtime"
)

// Algorithm throughput across input sizes; complements the root-level
// per-figure benchmarks with engine-level numbers.

func benchSorter(b *testing.B, mode model.Mode, n, k int,
	run func(*model.Session) (Result, error)) {
	b.Helper()
	truth := oracle.RandomBalanced(n, k, rand.New(rand.NewSource(7)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := model.NewSession(truth, mode)
		if _, err := run(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSortCR is the tracked-baseline benchmark of the full Theorem 1
// sort (see BENCH_baseline.json and the CI bench smoke): one fixed shape,
// with allocation accounting, so the flat merge engine's ns/op and
// allocs/op trajectory is comparable across PRs. Workers(1) keeps the
// session off the goroutine-spawning parallel execute path, whose alloc
// count would vary with the runner's core count.
func BenchmarkSortCR(b *testing.B) {
	const n, k = 4096, 8
	truth := oracle.RandomBalanced(n, k, rand.New(rand.NewSource(7)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SortCR(model.NewSession(truth, model.CR, model.Workers(1)), k); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSortZeta is the tracked-baseline benchmark of the offline
// sorts on the paper's heavy-tailed input: n = 2^16 labels drawn from
// zeta(2), sorted with SortER and with SortCRUnknownK, one fresh session
// per sort as the public entry points run. Workers(1) keeps allocs/op
// independent of the runner's core count, so the per-sort arena cost is
// what the allocation gate sees.
func BenchmarkSortZeta(b *testing.B) { benchSortZeta(b, model.Workers(1)) }

// BenchmarkSortZetaParallel runs BenchmarkSortZeta's sorts at Workers(2)
// on a dedicated 2-wide pool, so each round's tests and each CR merge
// level's per-group passes run on two goroutines. It has no baseline:
// its ns/op depends on the runner's cores, and CI runs it ungated in the
// multi-core pool smoke so the parallel passes also run outside -race.
func BenchmarkSortZetaParallel(b *testing.B) {
	pool := rt.NewPool(2)
	defer pool.Close()
	benchSortZeta(b, model.Workers(2), model.WithPool(pool))
}

// benchSortZeta times SortER and SortCRUnknownK on n = 2^16 zeta(2)
// labels, one fresh session with opts per sort.
func benchSortZeta(b *testing.B, opts ...model.Option) {
	const n = 1 << 16
	truth := oracle.NewLabel(dist.Labels(dist.NewZeta(2), n, rand.New(rand.NewSource(7))))
	for _, bc := range []struct {
		name string
		mode model.Mode
		run  func(*model.Session) (Result, error)
	}{
		{"ER", model.ER, SortER},
		{"CRUnknownK", model.CR, SortCRUnknownK},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bc.run(model.NewSession(truth, bc.mode, opts...)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMergeGroup is the tracked-baseline benchmark of one compounding
// group merge — the phase 2 step every flush and sort funnels through. It
// runs MergeGroupCR's merge on its own fold arena, warmed by one merge
// before timing, so a GC that empties MergeGroupCR's arena pool cannot
// show up in allocs/op; TestMergeGroupCRAllocs covers the pooled
// MergeGroupCR.
func BenchmarkMergeGroup(b *testing.B) {
	truth := oracle.RandomBalanced(512, 8, rand.New(rand.NewSource(31)))
	s := model.NewSession(truth, model.CR, model.Workers(1))
	ar := newCRArena(512)
	na, err := ar.firstLevel(s, ar.sc.pairs, ar.sc.results)
	if err != nil {
		b.Fatal(err)
	}
	for na > 24 {
		if na, err = mergePairsCR(s, ar); err != nil {
			b.Fatal(err)
		}
	}
	lvl := ar.current()
	group := make([]Answer, na)
	for i := range group {
		group[i] = NewAnswer(lvl.answer(i).Classes())
	}
	var fold FoldArena
	merge := func() {
		out, err := fold.sc.merge(s, fold.load(nil, group...), level{bound: fold.bound}, len(group))
		if err != nil {
			b.Fatal(err)
		}
		fold.bound = out.bound
	}
	merge()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		merge()
	}
}

func BenchmarkSortCREngine(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 13, 1 << 16} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchSorter(b, model.CR, n, 8, func(s *model.Session) (Result, error) {
				return SortCR(s, 8)
			})
		})
	}
}

func BenchmarkSortEREngine(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 13, 1 << 16} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchSorter(b, model.ER, n, 8, SortER)
		})
	}
}

func BenchmarkRoundRobinEngine(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 13} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchSorter(b, model.ER, n, 8, RoundRobin)
		})
	}
}

func BenchmarkNaiveEngine(b *testing.B) {
	benchSorter(b, model.ER, 1<<13, 8, Naive)
}

func BenchmarkCertifyEngine(b *testing.B) {
	truth := oracle.RandomBalanced(1<<13, 8, rand.New(rand.NewSource(8)))
	res, err := SortER(model.NewSession(truth, model.ER))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := model.NewSession(truth, model.ER)
		if err := Certify(s, res.Classes); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIncrementalEngine(b *testing.B) {
	const n = 1 << 12
	truth := oracle.RandomBalanced(n, 8, rand.New(rand.NewSource(9)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := model.NewSession(truth, model.CR)
		inc, err := NewIncremental(s)
		if err != nil {
			b.Fatal(err)
		}
		for e := 0; e < n; e++ {
			if err := inc.Add(e); err != nil {
				b.Fatal(err)
			}
			if e%256 == 255 {
				if err := inc.Flush(); err != nil {
					b.Fatal(err)
				}
			}
		}
		if _, err := inc.Classes(); err != nil {
			b.Fatal(err)
		}
	}
}
