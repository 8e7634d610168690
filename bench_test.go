// Benchmarks regenerating the paper's quantitative artifacts, one per
// table/figure. Besides wall time, each benchmark reports the
// model-level quantities the paper plots — comparisons/op and
// rounds/op — via b.ReportMetric, so `go test -bench=.` doubles as a
// compact reproduction of the evaluation:
//
//   - BenchmarkFig5* — Figure 5: round-robin comparison counts per
//     distribution (uniform / geometric / Poisson / zeta parameter grid).
//   - BenchmarkCRRounds / BenchmarkERRounds / BenchmarkConstRounds —
//     Theorems 1, 2, 4 round complexities across n.
//   - BenchmarkAdversaryEqual / BenchmarkAdversarySmallest — Theorems 5,
//     6 forced-comparison lower bounds (note C·f/n² stays ≈ constant).
//   - BenchmarkFigure1Schedule — the Figure 1 merge-schedule generator.
//   - BenchmarkOracle* — cost of one comparison under each application
//     oracle (handshake protocol run, isomorphism test, fault probe).
//
// Benchmark sizes are scaled down from the paper's (which sum to ~10⁹
// element-draws) to keep -bench runs in seconds; cmd/ecs-experiments
// -scale 1 reproduces the full-size tables.
package ecsort

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"ecsort/internal/harness"
)

// benchFig5 runs one Figure 5 cell: round-robin sorting of n elements
// drawn from d, reporting the comparison count the paper plots.
func benchFig5(b *testing.B, d Distribution, n int) {
	b.Helper()
	rng := rand.New(rand.NewSource(2016))
	var comparisons int64
	for i := 0; i < b.N; i++ {
		labels := SampleLabels(d, n, rng)
		res, err := Sort(context.Background(), NewLabelOracle(labels), RoundRobin(), Config{})
		if err != nil {
			b.Fatal(err)
		}
		comparisons += res.Stats.Comparisons
	}
	b.ReportMetric(float64(comparisons)/float64(b.N), "comparisons/op")
	b.ReportMetric(float64(comparisons)/float64(b.N)/float64(n), "comparisons/elem")
}

func BenchmarkFig5Uniform(b *testing.B) {
	for _, k := range []int{10, 25, 100} {
		b.Run(fmt.Sprintf("k=%d/n=20000", k), func(b *testing.B) {
			benchFig5(b, NewUniform(k), 20000)
		})
	}
}

func BenchmarkFig5Geometric(b *testing.B) {
	for _, p := range []float64{1.0 / 2, 1.0 / 10, 1.0 / 50} {
		b.Run(fmt.Sprintf("p=%g/n=20000", p), func(b *testing.B) {
			benchFig5(b, NewGeometric(p), 20000)
		})
	}
}

func BenchmarkFig5Poisson(b *testing.B) {
	for _, lambda := range []float64{1, 5, 25} {
		b.Run(fmt.Sprintf("lambda=%g/n=20000", lambda), func(b *testing.B) {
			benchFig5(b, NewPoisson(lambda), 20000)
		})
	}
}

func BenchmarkFig5Zeta(b *testing.B) {
	for _, s := range []float64{1.1, 1.5, 2, 2.5} {
		b.Run(fmt.Sprintf("s=%g/n=2000", s), func(b *testing.B) {
			benchFig5(b, NewZeta(s), 2000)
		})
	}
}

// BenchmarkCRRounds regenerates the Theorem 1 validation: rounds should
// stay flat as n grows 16×.
func BenchmarkCRRounds(b *testing.B) {
	const k = 8
	for _, n := range []int{1 << 12, 1 << 14, 1 << 16} {
		b.Run(fmt.Sprintf("k=%d/n=%d", k, n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			labels := SampleLabels(NewUniform(k), n, rng)
			o := NewLabelOracle(labels)
			var rounds, comparisons int64
			for i := 0; i < b.N; i++ {
				res, err := Sort(context.Background(), o, CR(k), Config{})
				if err != nil {
					b.Fatal(err)
				}
				rounds += int64(res.Stats.Rounds)
				comparisons += res.Stats.Comparisons
			}
			b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
			b.ReportMetric(float64(comparisons)/float64(b.N), "comparisons/op")
		})
	}
}

// BenchmarkERRounds regenerates the Theorem 2 validation: rounds grow
// ∝ k·log n.
func BenchmarkERRounds(b *testing.B) {
	const k = 8
	for _, n := range []int{1 << 12, 1 << 14, 1 << 16} {
		b.Run(fmt.Sprintf("k=%d/n=%d", k, n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(2))
			labels := SampleLabels(NewUniform(k), n, rng)
			o := NewLabelOracle(labels)
			var rounds, comparisons int64
			for i := 0; i < b.N; i++ {
				res, err := Sort(context.Background(), o, ER(), Config{})
				if err != nil {
					b.Fatal(err)
				}
				rounds += int64(res.Stats.Rounds)
				comparisons += res.Stats.Comparisons
			}
			b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
			b.ReportMetric(float64(comparisons)/float64(b.N), "comparisons/op")
		})
	}
}

// BenchmarkConstRounds regenerates the Theorem 4 validation: rounds flat
// in n for fixed λ.
func BenchmarkConstRounds(b *testing.B) {
	const lambda = 0.3
	for _, n := range []int{1 << 10, 1 << 12, 1 << 14} {
		b.Run(fmt.Sprintf("lambda=%g/n=%d", lambda, n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			labels := SampleLabels(NewUniform(3), n, rng)
			o := NewLabelOracle(labels)
			var rounds int64
			for i := 0; i < b.N; i++ {
				res, err := Sort(context.Background(), o, ConstRoundER(ConstRoundOptions{
					Lambda: lambda, D: 8, MaxRetries: 8, Seed: int64(i),
				}), Config{})
				if err != nil {
					b.Fatal(err)
				}
				rounds += int64(res.Stats.Rounds)
			}
			b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
		})
	}
}

// BenchmarkAdversaryEqual regenerates the Theorem 5 sweep: forced
// comparisons normalized by n²/f should hover near a constant ≥ 1/64.
func BenchmarkAdversaryEqual(b *testing.B) {
	const n = 512
	for _, f := range []int{2, 8, 32} {
		b.Run(fmt.Sprintf("n=%d/f=%d", n, f), func(b *testing.B) {
			var normalized float64
			for i := 0; i < b.N; i++ {
				adv := NewEqualSizeAdversary(n, f)
				res, err := Sort(context.Background(), adv, RoundRobin(), Config{Workers: 1})
				if err != nil {
					b.Fatal(err)
				}
				normalized += float64(res.Stats.Comparisons) * float64(f) / float64(n) / float64(n)
			}
			b.ReportMetric(normalized/float64(b.N), "C·f/n²")
		})
	}
}

// BenchmarkAdversarySmallest regenerates the Theorem 6 sweep: comparisons
// until the smallest class is pinned, normalized by n²/ℓ.
func BenchmarkAdversarySmallest(b *testing.B) {
	const n = 512
	for _, l := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("n=%d/l=%d", n, l), func(b *testing.B) {
			var normalized float64
			for i := 0; i < b.N; i++ {
				adv := NewSmallestClassAdversary(n, l)
				if _, err := Sort(context.Background(), adv, RoundRobin(), Config{Workers: 1}); err != nil {
					b.Fatal(err)
				}
				normalized += float64(adv.FirstSCCMark()) * float64(l) / float64(n) / float64(n)
			}
			b.ReportMetric(normalized/float64(b.N), "C·ℓ/n²")
		})
	}
}

// BenchmarkFigure1Schedule measures the Figure 1 table generator.
func BenchmarkFigure1Schedule(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := harness.Figure1Schedule(1<<20, 8)
		if len(rows) == 0 {
			b.Fatal("empty schedule")
		}
	}
}

// BenchmarkOracleHandshake measures one full HMAC challenge–response
// handshake, both sides signing on the calling goroutine.
func BenchmarkOracleHandshake(b *testing.B) {
	labels := []int{0, 0, 1, 1}
	h := NewHandshakeOracle(labels, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Same(0, i%2+2) // alternate match / mismatch
	}
}

// BenchmarkOracleGraphIso measures one isomorphism test on 12-vertex
// graphs (positive and negative cases).
func BenchmarkOracleGraphIso(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	o := RandomGraphCollection([]int{0, 0, 1}, 12, rng)
	b.Run("isomorphic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if !o.Same(0, 1) {
				b.Fatal("wrong answer")
			}
		}
	})
	b.Run("non-isomorphic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if o.Same(0, 2) {
				b.Fatal("wrong answer")
			}
		}
	})
}

// BenchmarkOracleFault measures one mutual probe.
func BenchmarkOracleFault(b *testing.B) {
	f := RandomInfections(1024, 4, 0.4, rand.New(rand.NewSource(11)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Same(i%1024, (i+7)%1024)
	}
}

// BenchmarkTwoClassER measures the k=2 constant-round algorithm (the
// open-problem note of Section 6) at growing n.
func BenchmarkTwoClassER(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 13} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			labels := make([]int, n)
			for i := 0; i < n/10; i++ {
				labels[i*7%n] = 1
			}
			o := NewLabelOracle(labels)
			var rounds int64
			for i := 0; i < b.N; i++ {
				res, err := Sort(context.Background(), o, TwoClassER(5, int64(i)), Config{})
				if err != nil {
					b.Fatal(err)
				}
				rounds += int64(res.Stats.Rounds)
			}
			b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
		})
	}
}

// BenchmarkMajority measures MJRTY + verification (≤ 2(n−1) tests).
func BenchmarkMajority(b *testing.B) {
	const n = 1 << 14
	labels := make([]int, n)
	for i := 0; i < n/3; i++ {
		labels[i*3%n] = 1
	}
	o := NewLabelOracle(labels)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, maj := Majority(o, Config{}); !maj {
			b.Fatal("majority missing")
		}
	}
}

// BenchmarkRoundRobinScaling measures the sequential regimen end to end
// at growing n (the engine behind every Figure 5 cell).
func BenchmarkRoundRobinScaling(b *testing.B) {
	for _, n := range []int{1 << 12, 1 << 14, 1 << 16} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(12))
			labels := SampleLabels(NewUniform(25), n, rng)
			o := NewLabelOracle(labels)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Sort(context.Background(), o, RoundRobin(), Config{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
