package model

import (
	"math/rand"
	"sync"
	"testing"

	rt "ecsort/internal/runtime"
)

// BenchmarkExecute is the tracked-baseline benchmark of physical-round
// execution (see BENCH_baseline.json and the CI bench smoke): the same
// one-round workload driven through the persistent runtime pool versus
// the spawn-per-round path it replaced (fresh goroutines and a WaitGroup
// every round, reproduced here as a batch oracle that a Workers(1)
// session calls once per physical round).
// Both variants pin the parallel width to 4 so allocs/op is independent
// of the runner's core count; run with -cpu 1,4 to see the pool's
// multi-core win on real hardware.

// mixOracle burns a fixed amount of CPU per test — a stand-in for a real
// equivalence test (certificate comparison, HMAC exchange) that gives
// parallel execution something to chew on.
type mixOracle struct {
	labels []int
}

func (o mixOracle) N() int { return len(o.labels) }

func (o mixOracle) Same(i, j int) bool {
	h := uint64(i)*0x9e3779b97f4a7c15 ^ uint64(j)*0xbf58476d1ce4e5b9
	for r := 0; r < 32; r++ {
		h ^= h >> 27
		h *= 0x94d049bb133111eb
	}
	return o.labels[i] == o.labels[j] && h != 0
}

// spawnOracle reproduces the pre-runtime execute path for comparison:
// each SameBatch call spawns goroutines over chunked ranges.
type spawnOracle struct {
	mixOracle
	workers int
}

func (o spawnOracle) SameBatch(pairs []Pair, out []bool) {
	w := min(o.workers, len(pairs))
	var wg sync.WaitGroup
	chunk := (len(pairs) + w - 1) / w
	for start := 0; start < len(pairs); start += chunk {
		end := min(start+chunk, len(pairs))
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				out[i] = o.Same(pairs[i].A, pairs[i].B)
			}
		}(start, end)
	}
	wg.Wait()
}

func BenchmarkExecute(b *testing.B) {
	const n = 4096
	rng := rand.New(rand.NewSource(42))
	labels := make([]int, n)
	for i := range labels {
		labels[i] = rng.Intn(8)
	}
	o := mixOracle{labels: labels}
	pairs := make([]Pair, n)
	for i := range pairs {
		a, c := rng.Intn(n), rng.Intn(n)
		for a == c {
			c = rng.Intn(n)
		}
		pairs[i] = Pair{a, c}
	}
	buf := make([]bool, len(pairs))

	bench := func(b *testing.B, s *Session) {
		b.Helper()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.RoundBuf(pairs, buf); err != nil {
				b.Fatal(err)
			}
		}
	}

	b.Run("pool", func(b *testing.B) {
		pool := rt.NewPool(4)
		defer pool.Close()
		bench(b, NewSession(o, CR, Workers(4), WithPool(pool), Processors(len(pairs))))
	})
	b.Run("spawn", func(b *testing.B) {
		bench(b, NewSession(spawnOracle{o, 4}, CR, Workers(1), Processors(len(pairs))))
	})
}

// batchMixOracle is mixOracle with the whole-chunk answering path: the
// same per-pair work, minus one oracle invocation per pair — chunks
// cost runtime.NumChunks(len(pairs), workers) calls per round.
type batchMixOracle struct{ mixOracle }

func (o batchMixOracle) SameBatch(pairs []Pair, out []bool) {
	for i, p := range pairs {
		out[i] = o.Same(p.A, p.B)
	}
}

// BenchmarkRoundBatch is the tracked-baseline benchmark of the batch
// round path (see BENCH_baseline.json and the CI bench smoke): the
// identical one-round workload answered whole-chunk (batch) versus
// pair-at-a-time (perpair), both through the persistent pool at a
// pinned width of 4. The stats, answers, and chunking are bit-identical
// by construction; the delta is dispatch overhead — per-pair interface
// calls versus one SameBatch per chunk.
func BenchmarkRoundBatch(b *testing.B) {
	const n = 4096
	rng := rand.New(rand.NewSource(42))
	labels := make([]int, n)
	for i := range labels {
		labels[i] = rng.Intn(8)
	}
	o := mixOracle{labels: labels}
	pairs := make([]Pair, n)
	for i := range pairs {
		a, c := rng.Intn(n), rng.Intn(n)
		for a == c {
			c = rng.Intn(n)
		}
		pairs[i] = Pair{a, c}
	}
	buf := make([]bool, len(pairs))

	bench := func(b *testing.B, s *Session) {
		b.Helper()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.RoundBuf(pairs, buf); err != nil {
				b.Fatal(err)
			}
		}
	}

	b.Run("batch", func(b *testing.B) {
		pool := rt.NewPool(4)
		defer pool.Close()
		bench(b, NewSession(batchMixOracle{o}, CR, Workers(4), WithPool(pool), Processors(len(pairs))))
	})
	b.Run("perpair", func(b *testing.B) {
		pool := rt.NewPool(4)
		defer pool.Close()
		bench(b, NewSession(o, CR, Workers(4), WithPool(pool), Processors(len(pairs))))
	})
}
