package service

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"ecsort/internal/core"
)

// BenchmarkIngest measures end-to-end service ingestion throughput — the
// CI smoke runs it with -benchtime 1x to catch pathological regressions
// in the batch→flush→snapshot path. Sub-benchmarks vary the shard count
// so contention effects show up on multi-core hardware: 2×shards label
// collections, each streamed in shuffled batches by one of the
// concurrent writers, every final partition checked against ground
// truth. Workers: 1 pins each session to the serial execute path so
// allocs/op stays comparable against BENCH_baseline.json regardless of
// the runner's core count; shard and writer parallelism is still
// exercised.
func BenchmarkIngest(b *testing.B) {
	const elements, classes, batch, writers = 512, 8, 64, 4
	for _, shards := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rng := rand.New(rand.NewSource(int64(i)))
				keys := make([]string, 2*shards)
				labels := make([][]int, len(keys))
				orders := make([][]int, len(keys))
				svc := New(Config{Shards: shards, BatchSize: 128, Workers: 1})
				for c := range keys {
					keys[c] = fmt.Sprintf("bench-%03d", c)
					labels[c] = make([]int, elements)
					for e := range labels[c] {
						labels[c][e] = rng.Intn(classes)
					}
					orders[c] = rng.Perm(elements)
					if err := svc.CreateCollection(keys[c], OracleSpec{Kind: KindLabel, Labels: labels[c]}); err != nil {
						b.Fatal(err)
					}
				}
				start := time.Now()
				errs := make(chan error, writers)
				var wg sync.WaitGroup
				for w := 0; w < writers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for c := w; c < len(keys); c += writers {
							for lo := 0; lo < elements; lo += batch {
								if _, err := svc.Ingest(keys[c], orders[c][lo:lo+batch], false); err != nil {
									errs <- err
									return
								}
							}
						}
					}(w)
				}
				wg.Wait()
				elapsed := time.Since(start)
				close(errs)
				if err := <-errs; err != nil {
					b.Fatal(err)
				}
				for c, key := range keys {
					snap, err := svc.Classes(key, true)
					if err != nil {
						b.Fatal(err)
					}
					got := core.Result{Classes: snap.Classes}
					if snap.Size != elements || !core.SameClassification(got.Labels(elements), labels[c]) {
						b.Fatal("wrong partition under benchmark load")
					}
				}
				svc.Close()
				b.ReportMetric(float64(len(keys)*elements)/elapsed.Seconds(), "elems/s")
			}
		})
	}
}

// BenchmarkIngestSingleCollection isolates the per-batch cost on one
// collection (no sharding win available): the compounding flush itself.
func BenchmarkIngestSingleCollection(b *testing.B) {
	labels := make([]int, 4096)
	for i := range labels {
		labels[i] = i % 16
	}
	run := func() {
		svc := New(Config{Shards: 1, BatchSize: 256, Workers: 1})
		if err := svc.CreateCollection("bench", OracleSpec{Kind: KindLabel, Labels: labels}); err != nil {
			b.Fatal(err)
		}
		for lo := 0; lo < len(labels); lo += 64 {
			if _, err := svc.Ingest("bench", seq(lo, lo+64), false); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := svc.Classes("bench", true); err != nil {
			b.Fatal(err)
		}
		svc.Close()
	}
	run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// BenchmarkIngestDurable is BenchmarkIngestSingleCollection with the
// write-ahead log on (fsync "never", so it measures the append/encode
// cost, not the disk): the price of durability on the hot ingest path.
// The WAL encodes into a reusable buffer, so allocs/op should track the
// memory-only benchmark closely — the benchcmp gate holds that line.
// Both benchmarks run one untimed iteration first: a process's first
// json.Marshal builds encoding/json's type cache (~320 allocs, charged
// to the create record and the data-directory stamp), which a cold
// -benchtime 1x run would otherwise report as durability cost.
func BenchmarkIngestDurable(b *testing.B) {
	labels := make([]int, 4096)
	for i := range labels {
		labels[i] = i % 16
	}
	run := func() {
		b.StopTimer()
		dir := b.TempDir()
		b.StartTimer()
		svc, err := Open(Config{Shards: 1, BatchSize: 256, Workers: 1, DataDir: dir, Fsync: "never"})
		if err != nil {
			b.Fatal(err)
		}
		if err := svc.CreateCollection("bench", OracleSpec{Kind: KindLabel, Labels: labels}); err != nil {
			b.Fatal(err)
		}
		for lo := 0; lo < len(labels); lo += 64 {
			if _, err := svc.Ingest("bench", seq(lo, lo+64), false); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := svc.Classes("bench", true); err != nil {
			b.Fatal(err)
		}
		svc.Close()
	}
	run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

func seq(lo, hi int) []int {
	out := make([]int, hi-lo)
	for i := range out {
		out[i] = lo + i
	}
	return out
}
