package service

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"ecsort/internal/dist"
)

// TestRetainedBytesIndependentOfFoldSize guards that a collection keeps
// only its answer, pending buffer and seen set between folds, not the
// scratch of its largest fold: the fold scratch belongs to the shard.
// It ingests the same 256 elements into 64 collections on a one-shard
// service twice, on fresh services, folding every 16-item batch in one
// run and every 128-item batch in the other. A 128-item fold's pair
// buffer alone is ~130 KB, so a collection that kept its fold scratch
// would retain far more after the second run; with the scratch on the
// shard the two runs retain about the same heap per collection.
func TestRetainedBytesIndependentOfFoldSize(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes are not meaningful under -race")
	}
	const cols, n, elems = 64, 2048, 256
	rng := rand.New(rand.NewSource(41))
	labels := make([][]int, cols)
	orders := make([][]int, cols)
	for c := range labels {
		labels[c] = dist.Labels(dist.NewZeta(2), n, rng)
		orders[c] = rng.Perm(n)[:elems]
	}
	retained := func(batch int) int64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		svc := New(Config{Shards: 1, Workers: 1})
		for c := range labels {
			key := fmt.Sprintf("col-%02d", c)
			if err := svc.CreateCollection(key, OracleSpec{Kind: KindLabel, Labels: labels[c]}); err != nil {
				t.Fatal(err)
			}
			for lo := 0; lo < elems; lo += batch {
				if _, err := svc.Ingest(key, orders[c][lo:lo+batch], true); err != nil {
					t.Fatal(err)
				}
			}
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		svc.Close()
		return (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / cols
	}
	small, large := retained(16), retained(128)
	// The inputs were built before either measurement; freeing them
	// during one would hide what that run's service retains.
	runtime.KeepAlive(labels)
	runtime.KeepAlive(orders)
	t.Logf("retained per collection: %d B after 16-item folds, %d B after 128-item folds", small, large)
	if d := large - small; d > 8<<10 || d < -8<<10 {
		t.Errorf("retained heap per collection moved by %d B between 16-item and 128-item folds (%d → %d B), want within 8 KiB: a collection is keeping its fold scratch",
			d, small, large)
	}
}
