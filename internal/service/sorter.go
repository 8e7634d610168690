package service

import (
	"context"
	"fmt"
	"sync"

	"ecsort/internal/algo"
	"ecsort/internal/core"
	"ecsort/internal/model"
)

// sorter is what a collection needs from its classification engine. The
// default implementation is core.Incremental (online CR folds of at most
// two rounds); batchSorter adapts any batch Algorithm from the registry
// so a collection can run ER or const-round regimens instead. A sorter
// keeps only the state that outlives a fold; the fold's scratch is the
// caller's, passed to Flush.
type sorter interface {
	// Add buffers element e; it rejects out-of-range and duplicates.
	Add(e int) error
	// Has reports whether e was already added (buffered or folded).
	Has(e int) bool
	// Pending counts buffered elements awaiting the next Flush.
	Pending() int
	// Flush folds the buffer into the answer, using ar for the fold's
	// scratch. The shard goroutine passes its own arena, so scratch is
	// held once per shard instead of once per collection; engines that
	// need no shared scratch ignore it.
	Flush(ar *core.FoldArena) error
	// Flushes counts non-empty folds so far.
	Flushes() int
	// Stats is the accumulated session cost.
	Stats() model.Stats
	// Flat exposes the answer's flat storage (elements grouped by
	// class + class offsets), valid until the next Flush.
	Flat() (elems, offs []int)
	// PendingSlice exposes the buffered elements in arrival order — the
	// order the next Flush will fold them in, which checkpoints must
	// preserve for bit-identical recovery. Read-only, valid until the
	// next Add or Flush.
	PendingSlice() []int
	// Members exposes the full arrival-order ingest history for engines
	// that re-sort their whole sub-universe per fold (batch regimens);
	// engines that fold incrementally return nil — their folded state is
	// fully captured by Flat.
	Members() []int
	// Restore rebuilds a fresh engine from checkpointed state so it
	// continues bit-identically: members (nil for incremental engines),
	// the pending tail, the flat answer, the accumulated cost, and the
	// fold count.
	Restore(members, pending, elems, offs []int, st model.Stats, flushes int) error
	// Delete removes element e entirely — from the pending buffer or the
	// merged answer — so it may be re-added later. It rejects elements
	// that are not currently added.
	Delete(e int) error
	// Invalidate withdraws the merged class containing element e: its
	// members leave the answer and re-enter the pending buffer, so the
	// next Flush re-verifies them against the oracle. It returns the
	// number of re-queued members, and an error when e is not added or
	// has no merged class (still pending).
	Invalidate(e int) (int, error)
	// SetContext rebinds the context bounding subsequent folds. The
	// service wires a cancelable context per fold so a tripped oracle
	// circuit breaker aborts the fold between rounds.
	SetContext(ctx context.Context)
}

// incSorter adapts core.Incremental to the sorter interface's durability
// hooks. The incremental engine folds arrivals into its answer as it
// goes, so it has no use for a full arrival-order history — Members is
// nil and a checkpoint captures it with the flat answer plus the pending
// buffer alone.
type incSorter struct {
	*core.Incremental
}

func (w incSorter) Flush(ar *core.FoldArena) error { return core.FlushIn(w.Incremental, ar) }

func (w incSorter) PendingSlice() []int { return w.Incremental.PendingElements() }

func (w incSorter) Members() []int { return nil }

func (w incSorter) Invalidate(e int) (int, error) {
	members, err := w.Incremental.InvalidateClassOf(e)
	return len(members), err
}

func (w incSorter) Restore(members, pending, elems, offs []int, st model.Stats, flushes int) error {
	if len(members) != 0 {
		return fmt.Errorf("service: incremental engine restored with a members list (%d entries)", len(members))
	}
	return w.Incremental.Restore(elems, offs, pending, st, flushes)
}

// subOracle restricts a base oracle to the sub-universe ids, the view a
// batch regimen sorts: position i of the sub-universe is base element
// ids[i]. Build one with newSubOracle, which preserves the base's
// batch capability.
type subOracle struct {
	base model.Oracle
	ids  []int
}

func (o *subOracle) N() int { return len(o.ids) }

func (o *subOracle) Same(i, j int) bool { return o.base.Same(o.ids[i], o.ids[j]) }

// newSubOracle builds the sub-universe view, returning a batch-capable
// view when base itself implements model.BatchOracle so the capability
// survives into the per-flush sessions.
func newSubOracle(base model.Oracle, ids []int) model.Oracle {
	o := &subOracle{base: base, ids: ids}
	if b, ok := base.(model.BatchOracle); ok {
		return &subBatchOracle{subOracle: o, batch: b}
	}
	return o
}

// subBatchOracle forwards whole chunks through the id translation: a
// chunk's pairs are rewritten into base element ids in a pooled scratch
// buffer, then answered by one base SameBatch call. The scratch is per
// call (pooled), not per view — a parallel round invokes SameBatch
// concurrently on disjoint chunks.
type subBatchOracle struct {
	*subOracle
	batch model.BatchOracle
	bufs  sync.Pool
}

// SameBatch implements model.BatchOracle.
func (o *subBatchOracle) SameBatch(pairs []model.Pair, out []bool) {
	bp, _ := o.bufs.Get().(*[]model.Pair)
	if bp == nil {
		bp = new([]model.Pair)
	}
	buf := *bp
	if cap(buf) < len(pairs) {
		buf = make([]model.Pair, len(pairs))
	}
	buf = buf[:len(pairs)]
	ids := o.ids
	for i, p := range pairs {
		buf[i] = model.Pair{A: ids[p.A], B: ids[p.B]}
	}
	o.batch.SameBatch(buf, out)
	*bp = buf
	o.bufs.Put(bp)
}

// batchSorter runs a batch Algorithm as a collection engine. Where the
// incremental sorter folds only the new arrivals, a batch regimen is
// defined over its whole input at once, so every flush re-sorts the
// sub-universe of members ingested so far through the chosen regimen
// (on a fresh session whose costs accumulate into Stats). That trades
// fold cost for the regimen's guarantees — e.g. const-round-er spends
// O(1) physical rounds per fold no matter how large the collection has
// grown, where the incremental fold's first logical round widens with
// batch·k and its second with the square of the batch's new-class
// elements.
type batchSorter struct {
	alg  algo.Algorithm
	base model.Oracle
	opts []model.Option
	ctx  context.Context

	members []int // ingested elements in arrival order
	seen    []bool
	pending int // members added since the last completed flush

	elems   []int // flat answer in base-oracle element ids
	offs    []int
	stats   model.Stats
	flushes int
}

func newBatchSorter(alg algo.Algorithm, base model.Oracle, ctx context.Context, opts []model.Option) *batchSorter {
	return &batchSorter{
		alg:  alg,
		base: base,
		opts: opts,
		ctx:  ctx,
		seen: make([]bool, base.N()),
		offs: []int{0},
	}
}

func (b *batchSorter) Add(e int) error {
	if e < 0 || e >= len(b.seen) {
		return fmt.Errorf("service: element %d out of range [0,%d)", e, len(b.seen))
	}
	if b.seen[e] {
		return fmt.Errorf("service: element %d added twice", e)
	}
	b.seen[e] = true
	b.members = append(b.members, e)
	b.pending++
	return nil
}

func (b *batchSorter) Has(e int) bool { return e >= 0 && e < len(b.seen) && b.seen[e] }

func (b *batchSorter) Pending() int { return b.pending }

// Flush re-sorts the members on a fresh session; the regimen brings its
// own scratch, so ar is unused.
func (b *batchSorter) Flush(*core.FoldArena) error {
	if b.pending == 0 {
		return nil
	}
	s := model.NewSession(newSubOracle(b.base, b.members), b.alg.Mode(), b.opts...)
	res, err := b.alg.Sort(b.ctx, s)
	if err != nil {
		// The answer and pending count are untouched, so a failed fold
		// (cancellation, a const-round λ overestimate) leaves the
		// collection consistent and retryable.
		return err
	}
	b.elems = b.elems[:0]
	b.offs = b.offs[:1]
	for _, cls := range res.Classes {
		for _, i := range cls {
			b.elems = append(b.elems, b.members[i])
		}
		b.offs = append(b.offs, len(b.elems))
	}
	b.stats.Comparisons += res.Stats.Comparisons
	b.stats.Rounds += res.Stats.Rounds
	if res.Stats.MaxRoundSize > b.stats.MaxRoundSize {
		b.stats.MaxRoundSize = res.Stats.MaxRoundSize
	}
	b.pending = 0
	b.flushes++
	return nil
}

func (b *batchSorter) Flushes() int { return b.flushes }

func (b *batchSorter) Stats() model.Stats { return b.stats }

func (b *batchSorter) Flat() (elems, offs []int) {
	if len(b.elems) == 0 {
		return nil, nil
	}
	return b.elems, b.offs
}

func (b *batchSorter) PendingSlice() []int {
	return b.members[len(b.members)-b.pending:]
}

func (b *batchSorter) Members() []int { return b.members }

// Delete removes element e from the engine: from the pending tail
// (shrinking the next fold) or from the folded sub-universe and the
// current flat answer. Later folds simply re-sort the surviving members.
func (b *batchSorter) Delete(e int) error {
	if e < 0 || e >= len(b.seen) || !b.seen[e] {
		return fmt.Errorf("service: element %d not added", e)
	}
	b.seen[e] = false
	idx := -1
	for i, m := range b.members {
		if m == e {
			idx = i
			break
		}
	}
	if idx >= len(b.members)-b.pending {
		b.pending--
	}
	b.members = append(b.members[:idx], b.members[idx+1:]...)
	b.removeFromAnswer(e)
	return nil
}

// Invalidate withdraws the merged class containing e: the class leaves
// the flat answer and its members move to the members tail, joining the
// pending region so the next fold re-verifies them. Moving them keeps
// the checkpoint invariant — the pending buffer is always a contiguous
// members suffix.
func (b *batchSorter) Invalidate(e int) (int, error) {
	if e < 0 || e >= len(b.seen) || !b.seen[e] {
		return 0, fmt.Errorf("service: element %d not added", e)
	}
	ci := -1
	for k := 0; k+1 < len(b.offs) && ci < 0; k++ {
		for pos := b.offs[k]; pos < b.offs[k+1]; pos++ {
			if b.elems[pos] == e {
				ci = k
				break
			}
		}
	}
	if ci < 0 {
		return 0, fmt.Errorf("service: element %d is pending, no merged class to invalidate", e)
	}
	lo, hi := b.offs[ci], b.offs[ci+1]
	cls := make([]int, hi-lo)
	copy(cls, b.elems[lo:hi])
	copy(b.elems[lo:], b.elems[hi:])
	b.elems = b.elems[:len(b.elems)-(hi-lo)]
	copy(b.offs[ci:], b.offs[ci+1:])
	b.offs = b.offs[:len(b.offs)-1]
	for i := ci; i < len(b.offs); i++ {
		b.offs[i] -= hi - lo
	}
	inCls := make(map[int]bool, len(cls))
	for _, m := range cls {
		inCls[m] = true
	}
	kept := make([]int, 0, len(b.members))
	moved := make([]int, 0, len(cls))
	for _, m := range b.members {
		if inCls[m] {
			moved = append(moved, m)
		} else {
			kept = append(kept, m)
		}
	}
	b.members = append(kept, moved...)
	b.pending += len(cls)
	return len(cls), nil
}

// removeFromAnswer compacts element e out of the flat answer (a no-op
// when e is pending and not in the answer), removing its class if that
// empties it.
func (b *batchSorter) removeFromAnswer(e int) {
	for ci := 0; ci+1 < len(b.offs); ci++ {
		for pos := b.offs[ci]; pos < b.offs[ci+1]; pos++ {
			if b.elems[pos] != e {
				continue
			}
			copy(b.elems[pos:], b.elems[pos+1:])
			b.elems = b.elems[:len(b.elems)-1]
			for i := ci + 1; i < len(b.offs); i++ {
				b.offs[i]--
			}
			if b.offs[ci] == b.offs[ci+1] {
				copy(b.offs[ci+1:], b.offs[ci+2:])
				b.offs = b.offs[:len(b.offs)-1]
			}
			return
		}
	}
}

func (b *batchSorter) SetContext(ctx context.Context) { b.ctx = ctx }

// Restore rebuilds a fresh batch engine from checkpointed state. The
// members list is the whole arrival order — the sub-universe every later
// fold re-sorts — so preserving it exactly is what keeps post-recovery
// folds bit-identical.
func (b *batchSorter) Restore(members, pending, elems, offs []int, st model.Stats, flushes int) error {
	if len(b.members) != 0 || b.flushes != 0 {
		return fmt.Errorf("service: Restore on a used batch engine (%d members, %d flushes)", len(b.members), b.flushes)
	}
	if len(pending) > len(members) {
		return fmt.Errorf("service: %d pending exceed %d members", len(pending), len(members))
	}
	for i, e := range pending {
		if got := members[len(members)-len(pending)+i]; got != e {
			return fmt.Errorf("service: pending buffer is not the members tail (index %d: %d vs %d)", i, e, got)
		}
	}
	if len(elems) > 0 && (len(offs) < 2 || offs[0] != 0 || offs[len(offs)-1] != len(elems)) {
		return fmt.Errorf("service: malformed offset table (len %d over %d elements)", len(offs), len(elems))
	}
	for _, e := range members {
		if e < 0 || e >= len(b.seen) {
			return fmt.Errorf("service: member %d out of range [0,%d)", e, len(b.seen))
		}
		if b.seen[e] {
			return fmt.Errorf("service: member %d appears twice", e)
		}
		b.seen[e] = true
	}
	b.members = append(b.members, members...)
	b.pending = len(pending)
	b.elems = append(b.elems[:0], elems...)
	if len(elems) > 0 {
		b.offs = append(b.offs[:0], offs...)
	}
	b.stats = st
	b.flushes = flushes
	return nil
}
