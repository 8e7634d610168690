package service

import (
	"fmt"

	"ecsort/internal/model"
)

// Batch-oracle plumbing: the counting wrapper buildSorter installs
// around batch-capable effective oracles (feeding the
// ecsort_oracle_batch_* metrics), and the ingest batch validator shared
// by the item routes.

// countingBatchOracle decorates a batch-capable effective oracle so
// the service can export chunk-amortization metrics: one SameBatch
// call is one "batch round", however many pairs it carried. Same/N
// promote from the embedded interface, so per-pair callers (the repair
// daemon's re-verification) pass through untouched.
type countingBatchOracle struct {
	model.Oracle
	batch model.BatchOracle
	svc   *Service
}

// SameBatch implements model.BatchOracle.
func (o *countingBatchOracle) SameBatch(pairs []model.Pair, out []bool) {
	o.svc.batchRounds.Add(1)
	o.svc.batchPairs.Add(int64(len(pairs)))
	o.batch.SameBatch(pairs, out)
}

// validateBatch pre-validates one ingest batch against the collection
// engine — range, within-batch duplicates, already-ingested elements —
// so the whole batch is rejected before the WAL or the sorter sees any
// of it. Small batches (the common case) dup-check by quadratic scan
// instead of allocating a set; the crossover keeps the scan well under
// the map's constant factor.
func validateBatch(items []int, n int, srt sorter) error {
	small := len(items) <= 128
	var inBatch map[int]struct{}
	if !small {
		inBatch = make(map[int]struct{}, len(items))
	}
	for i, e := range items {
		if e < 0 || e >= n {
			return fmt.Errorf("%w: element %d out of range [0,%d)", ErrBadItem, e, n)
		}
		dup := false
		if small {
			for j := 0; j < i && !dup; j++ {
				dup = items[j] == e
			}
		} else {
			_, dup = inBatch[e]
		}
		if dup {
			return fmt.Errorf("%w: element %d appears twice in batch", ErrBadItem, e)
		}
		if srt.Has(e) {
			return fmt.Errorf("%w: element %d already ingested", ErrBadItem, e)
		}
		if !small {
			inBatch[e] = struct{}{}
		}
	}
	return nil
}
