package core

import (
	"context"
	"fmt"
)

// This file is the churn face of the incremental sorter: elements leave
// (Delete) and classes get withdrawn for re-verification
// (InvalidateClass) on the same flat Answer layout the insert path
// builds. Both mutations compact the answer's pool in place — one
// memmove over the element slice plus an offset-table shift — so they
// never reallocate, need no fold arena, and leave the answer in exactly
// the state a fresh build of the surviving classes would produce. That in-place determinism is what lets the service
// WAL-log deletes and invalidations as plain records and replay them
// bit-identically.

// Delete removes element e from the sorter entirely: from the pending
// buffer if it is still awaiting a flush, otherwise from the merged
// answer by compacting the flat backing in place. A class emptied by
// the removal disappears; deleting a class representative promotes the
// next member, which is sound because classes within an answer are
// mutually known-unequal. After Delete the element may be re-added
// later — the churn loop of a long-lived collection. It returns an
// error if e is out of range or not currently added.
func (inc *Incremental) Delete(e int) error {
	if e < 0 || e >= len(inc.seen) || !inc.seen[e] {
		return fmt.Errorf("core: element %d not added", e)
	}
	inc.seen[e] = false
	inc.added--
	for i, p := range inc.pending {
		if p == e {
			inc.pending = append(inc.pending[:i], inc.pending[i+1:]...)
			return nil
		}
	}
	ci, pos, ok := inc.locate(e)
	if !ok {
		panic("core: element added and flushed but not in any class")
	}
	inc.removeAt(ci, pos)
	return nil
}

// InvalidateClass withdraws merged class ci (by current class index):
// its members leave the answer and re-enter the pending buffer in
// class-storage order, so the next Flush re-verifies them against the
// oracle from scratch. The members stay added (Has keeps reporting
// true) and are returned as a fresh slice. This is the repair
// primitive: re-queued members re-merge against every surviving
// representative, so both a wrong merge (split repair) and a wrong
// split (merge repair) converge after invalidating the classes
// involved.
func (inc *Incremental) InvalidateClass(ci int) ([]int, error) {
	if ci < 0 || ci >= inc.answer.K() {
		return nil, fmt.Errorf("core: class %d out of range [0,%d)", ci, inc.answer.K())
	}
	cls := inc.answer.Class(ci)
	members := make([]int, len(cls))
	copy(members, cls)
	inc.pending = append(inc.pending, members...)

	elems, offs := inc.answer.elems, inc.answer.offs
	lo, hi := offs[ci], offs[ci+1]
	copy(elems[lo:], elems[hi:])
	elems = elems[:len(elems)-(hi-lo)]
	copy(offs[ci:], offs[ci+1:])
	offs = offs[:len(offs)-1]
	for i := ci; i < len(offs); i++ {
		offs[i] -= hi - lo
	}
	if len(elems) == 0 {
		inc.answer = Answer{}
	} else {
		inc.answer = Answer{elems: elems, offs: offs}
	}
	return members, nil
}

// InvalidateClassOf invalidates the merged class containing element e,
// returning the re-queued members. It fails if e has not been added,
// or is still pending — a buffered element has no merged class to
// withdraw.
func (inc *Incremental) InvalidateClassOf(e int) ([]int, error) {
	if e < 0 || e >= len(inc.seen) || !inc.seen[e] {
		return nil, fmt.Errorf("core: element %d not added", e)
	}
	ci, _, ok := inc.locate(e)
	if !ok {
		return nil, fmt.Errorf("core: element %d is pending, no merged class to invalidate", e)
	}
	return inc.InvalidateClass(ci)
}

// SetContext rebinds the underlying session's context for subsequent
// flushes; see model.Session.SetContext. The service bounds each fold
// with a cancelable context so a tripped oracle circuit breaker aborts
// the fold between rounds instead of wedging the shard goroutine.
func (inc *Incremental) SetContext(ctx context.Context) {
	inc.session.SetContext(ctx)
}

// locate finds the merged class containing element e, returning its
// class index and absolute position in the flat backing. ok is false
// when e is not in the merged answer (never added, deleted, or still
// pending).
func (inc *Incremental) locate(e int) (ci, pos int, ok bool) {
	for i := 0; i < inc.answer.K(); i++ {
		cls := inc.answer.Class(i)
		for p, x := range cls {
			if x == e {
				return i, inc.answer.offs[i] + p, true
			}
		}
	}
	return 0, 0, false
}

// removeAt compacts the element at absolute position pos out of class
// ci: one memmove over the element backing, then an offset shift. Runs
// on the answer's live backing views, so nothing is reallocated.
func (inc *Incremental) removeAt(ci, pos int) {
	elems, offs := inc.answer.elems, inc.answer.offs
	copy(elems[pos:], elems[pos+1:])
	elems = elems[:len(elems)-1]
	for i := ci + 1; i < len(offs); i++ {
		offs[i]--
	}
	if offs[ci] == offs[ci+1] {
		copy(offs[ci+1:], offs[ci+2:])
		offs = offs[:len(offs)-1]
	}
	if len(elems) == 0 {
		inc.answer = Answer{}
	} else {
		inc.answer = Answer{elems: elems, offs: offs}
	}
}
