package core

import (
	"errors"
	"fmt"
	"sync"

	"ecsort/internal/model"
	"ecsort/internal/unionfind"
)

// This file is the flat CR merge engine: the hot path behind SortCR,
// SortCRUnknownK, MergeGroupCR, and the incremental folds (FlushIn).
// Cross-representative tests stream into one reusable pair buffer in a
// canonical order, the equality results fold into a slice-indexed
// union-find over (answer, class) slots by re-walking that same order —
// no per-pair bookkeeping is ever stored — and the merged answer is
// written into flat storage with two passes. All scratch lives in a mergeScratch arena, so steady-state
// merges allocate nothing beyond the output answer's own backing.

// mergeScratch is the reusable scratch arena of the flat CR merge engine.
// The zero value is ready to use; buffers grow on demand and are retained
// across merges. A mergeScratch is not safe for concurrent use.
type mergeScratch struct {
	pairs   []model.Pair // emitted cross tests of the current logical round
	results []bool       // result buffer threaded through Session.RoundBuf
	dsu     unionfind.DSU
	// slotBase[u] is the slot index of group[u]'s first class; slots
	// number the (answer, class) pairs of one group consecutively.
	slotBase []int
	classID  []int // root slot -> output class id, assigned by first appearance
	cursor   []int // output class id -> write cursor, then offsets scratch
	spans    []mergeSpan
}

// errSmallGroup rejects degenerate merge group sizes; predeclared so the
// per-level hot path never touches fmt.
var errSmallGroup = errors.New("core: merge group size < 2")

// mergeSpan marks one group's slice of a batched logical round.
type mergeSpan struct {
	start, end int // answers[start:end] form the group
	lo, hi     int // its tests occupy pairs[lo:hi]
}

// appendCross appends every cross-answer representative test of the group
// to dst in canonical order — for each u < v, each class i of group[u]
// against each class j of group[v] — and returns the extended slice. The
// unite step re-walks the same order, so no pair-to-slot mapping is ever
// materialized.
//
//ecsort:hotpath
func appendCross(dst []model.Pair, group []Answer) []model.Pair {
	for u := 0; u < len(group); u++ {
		gu := group[u]
		ku := gu.K()
		for v := u + 1; v < len(group); v++ {
			gv := group[v]
			kv := gv.K()
			for i := 0; i < ku; i++ {
				x := gu.Rep(i)
				for j := 0; j < kv; j++ {
					dst = append(dst, model.Pair{A: x, B: gv.Rep(j)})
				}
			}
		}
	}
	return dst
}

// unite folds one group's equality results into the arena's union-find
// over (answer, class) slots. res must hold the answers to the tests
// appendCross emitted for this group, in that order.
//
//ecsort:hotpath
func (sc *mergeScratch) unite(group []Answer, res []bool) {
	slots := 0
	sc.slotBase = sc.slotBase[:0]
	for _, a := range group {
		sc.slotBase = append(sc.slotBase, slots)
		slots += a.K()
	}
	sc.dsu.Reset(slots)
	idx := 0
	for u := 0; u < len(group); u++ {
		ku := group[u].K()
		for v := u + 1; v < len(group); v++ {
			kv := group[v].K()
			for i := 0; i < ku; i++ {
				for j := 0; j < kv; j++ {
					if res[idx] {
						sc.dsu.Union(sc.slotBase[u]+i, sc.slotBase[v]+j)
					}
					idx++
				}
			}
		}
	}
}

// buildMerged writes the united group as one flat answer appended to the
// elems/offs destination slices (typically arena pools or exact-size
// fresh slices) and returns the answer viewing the appended region plus
// the extended slices. Output classes are ordered by the first slot of
// each united component and members concatenate in slot order — exactly
// the ordering the map-based engine produced, so results are
// bit-for-bit identical. Call unite for the group first.
//
//ecsort:hotpath
func (sc *mergeScratch) buildMerged(group []Answer, elems, offs []int) (Answer, []int, []int) {
	slots := sc.dsu.Len()
	if cap(sc.classID) < slots {
		sc.classID = make([]int, slots)
		sc.cursor = make([]int, slots)
	}
	classID := sc.classID[:slots]
	sizes := sc.cursor[:slots] // size per output class, then write cursor
	for i := 0; i < slots; i++ {
		classID[i] = -1
	}
	// Pass 1: assign output class ids by first slot appearance and total
	// the component sizes.
	k := 0
	slot := 0
	for _, a := range group {
		for i := 0; i < a.K(); i++ {
			r := sc.dsu.Find(slot)
			c := classID[r]
			if c < 0 {
				c = k
				k++
				classID[r] = c
				sizes[c] = 0
			}
			sizes[c] += a.offs[i+1] - a.offs[i]
			slot++
		}
	}
	// Offsets from sizes, then turn sizes into write cursors.
	base := len(elems)
	offBase := len(offs)
	offs = append(offs, base)
	for c := 0; c < k; c++ {
		offs = append(offs, offs[len(offs)-1]+sizes[c])
	}
	total := offs[len(offs)-1] - base
	for c := 0; c < k; c++ {
		sizes[c] = offs[offBase+c] - base
	}
	// Pass 2: place members in slot order.
	elems = growInts(elems, base+total)
	slot = 0
	for _, a := range group {
		for i := 0; i < a.K(); i++ {
			c := classID[sc.dsu.Find(slot)]
			cls := a.Class(i)
			copy(elems[base+sizes[c]:], cls)
			sizes[c] += len(cls)
			slot++
		}
	}
	out := Answer{
		elems: elems[base : base+total : base+total],
		offs:  offs[offBase : offBase+k+1 : offBase+k+1],
	}
	// Rebase the answer's offsets to its own elems view.
	if base != 0 {
		for i := range out.offs {
			out.offs[i] -= base
		}
	}
	return out, elems, offs
}

// growInts extends s to length n, preserving contents and doubling the
// capacity when a reallocation is needed so pool growth amortizes away.
//
//ecsort:hotpath
func growInts(s []int, n int) []int {
	if cap(s) < n {
		grown := make([]int, n, max(n, 2*cap(s)))
		copy(grown, s)
		return grown
	}
	return s[:n]
}

// round executes one logical round of the arena's emitted pairs through
// the session, keeping the result buffer for reuse when it grew.
//
//ecsort:hotpath
func (sc *mergeScratch) round(s *model.Session) ([]bool, error) {
	res, err := s.RoundBuf(sc.pairs, sc.results)
	if err != nil {
		return nil, err
	}
	if cap(res) > cap(sc.results) {
		sc.results = res
	}
	return res, nil
}

// streamGroup runs one group's whole merge round through the arena —
// appendCross → session round → unite — leaving the slot union-find
// ready for buildMerged.
//
//ecsort:hotpath
func (sc *mergeScratch) streamGroup(s *model.Session, group []Answer) error {
	sc.pairs = appendCross(sc.pairs[:0], group)
	res, err := sc.round(s)
	if err != nil {
		return err
	}
	sc.unite(group, res)
	return nil
}

// scratchPool recycles arenas across the exported one-shot entry points
// (MergePairCR, MergeGroupCR), keeping their steady state allocation-free
// too. Long-lived callers own one directly: SortCR in its crArena, the
// incremental folds in a FoldArena.
var scratchPool = sync.Pool{New: func() any { return new(mergeScratch) }}

// mergeGroupScratch merges a group of answers with one logical round of
// every cross-answer representative test, using the provided arena. The
// output answer is written into fresh exact-size storage.
func mergeGroupScratch(s *model.Session, sc *mergeScratch, group []Answer) (Answer, error) {
	if err := sc.streamGroup(s, group); err != nil {
		return Answer{}, err
	}
	size := 0
	for _, a := range group {
		size += a.Size()
	}
	out, _, _ := sc.buildMerged(group, make([]int, 0, size), make([]int, 0, sc.dsu.Len()+1))
	return out, nil
}

// MergePairCR merges two answers in the CR model with one logical round of
// K(a)·K(b) concurrent representative tests. The session splits the round
// if it exceeds the processor budget.
func MergePairCR(s *model.Session, a, b Answer) (Answer, error) {
	if s.Mode() != model.CR {
		return Answer{}, fmt.Errorf("core: MergePairCR requires a CR session, got %v", s.Mode())
	}
	sc := scratchPool.Get().(*mergeScratch)
	defer scratchPool.Put(sc)
	group := [2]Answer{a, b}
	return mergeGroupScratch(s, sc, group[:])
}

// MergeGroupCR merges a whole group of answers in the CR model with one
// logical round containing every cross-answer representative test — the
// compounding step of phase 2 of the Theorem 1 algorithm. Matching classes
// are united transitively.
func MergeGroupCR(s *model.Session, group []Answer) (Answer, error) {
	switch len(group) {
	case 0:
		return Answer{}, fmt.Errorf("core: MergeGroupCR of empty group")
	case 1:
		return group[0], nil
	}
	if s.Mode() != model.CR {
		return Answer{}, fmt.Errorf("core: MergeGroupCR requires a CR session, got %v", s.Mode())
	}
	sc := scratchPool.Get().(*mergeScratch)
	defer scratchPool.Put(sc)
	return mergeGroupScratch(s, sc, group)
}

// levels double-buffers the flat storage of a merge tree's levels: the
// element pool, offset pool and answer headers of the current level and
// of the level being built from it. The n singleton leaves are never
// stored: firstLevel writes level 1 straight into the first buffers, so
// those hold levels 1, 3, 5, … (at most ⌈n/2⌉ answers) and the second
// buffers levels 2, 4, … (at most ⌈n/4⌉). Every buffer is sized once from
// n, because a level covers at most n elements and its A answers need at
// most n+A offsets. The level being built never shares a buffer with the
// level it reads.
type levels struct {
	elems [2][]int
	offs  [2][]int
	ans   [2][]Answer
	cur   int // index of the buffers the current level views
}

// newLevels sizes the buffers for n elements: the first set for level 1's
// ⌈n/2⌉ answers, the second for level 2's ⌈n/4⌉.
func newLevels(n int) levels {
	half, quarter := n-n/2, (n+3)/4
	return levels{
		elems: [2][]int{make([]int, n), make([]int, 0, n)},
		offs:  [2][]int{make([]int, 0, n+half), make([]int, 0, n+quarter)},
		ans:   [2][]Answer{make([]Answer, 0, half), make([]Answer, 0, quarter)},
	}
}

// firstLevel builds level 1 of the merge tree, makes it current and
// returns it. Level 1 merges the singletons 2i and 2i+1 for every i, which
// in both the ER and the CR tree is the single test (2i, 2i+1): the ⌊n/2⌋
// tests run as one logical round through batch and results, so the
// session validates, splits and charges them like any round. The level's
// element pool is the identity permutation: answer i views elements 2i
// and 2i+1 as one class or two, and element n−1 is carried over alone
// when n is odd.
//
//ecsort:hotpath
func (lv *levels) firstLevel(s *model.Session, batch []model.Pair, results []bool) ([]Answer, error) {
	elems := lv.elems[0]
	n := len(elems)
	batch = batch[:0]
	for i := 0; i+1 < n; i += 2 {
		batch = append(batch, model.Pair{A: i, B: i + 1})
	}
	res, err := s.RoundBuf(batch, results)
	if err != nil {
		return nil, err
	}
	lv.cur = 0
	for i := range elems {
		elems[i] = i
	}
	offs, ans := lv.offs[0][:0], lv.ans[0][:0]
	for i, same := range res {
		lo := len(offs)
		if same {
			offs = append(offs, 0, 2)
		} else {
			offs = append(offs, 0, 1, 2)
		}
		ans = append(ans, Answer{elems: elems[2*i : 2*i+2 : 2*i+2], offs: offs[lo:len(offs):len(offs)]})
	}
	if n%2 == 1 {
		ans = append(ans, Answer{elems: elems[n-1 : n : n], offs: singletonOffs})
	}
	return ans, nil
}

// spare returns the emptied buffers the next level is built into.
//
//ecsort:hotpath
func (lv *levels) spare() (elems, offs []int, ans []Answer) {
	dst := 1 - lv.cur
	return lv.elems[dst][:0], lv.offs[dst][:0], lv.ans[dst][:0]
}

// flip makes the level built in the spare buffers current.
func (lv *levels) flip() { lv.cur = 1 - lv.cur }

// appendAnswer copies a into the elems/offs destination pools and
// returns the copied view — the carry-over path for an answer with no
// partner, so the source pool can be recycled next level.
//
//ecsort:hotpath
func appendAnswer(a Answer, elems, offs []int) (Answer, []int, []int) {
	base, offBase := len(elems), len(offs)
	elems = append(elems, a.elems...)
	offs = append(offs, a.offs...)
	out := Answer{
		elems: elems[base : base+a.Size() : base+a.Size()],
		offs:  offs[offBase : offBase+len(a.offs) : offBase+len(a.offs)],
	}
	return out, elems, offs
}

// crArena is the per-sort state of the batched level merges of SortCR and
// its variants: the level buffers plus the merge scratch, whose pair and
// result buffers hold a logical round of n tests, one per processor. Only
// a logical round wider than that grows the pair buffer, once per level
// and to its exact width.
type crArena struct {
	levels
	sc mergeScratch
}

// newCRArena sizes the arena for n elements. Its first level comes from
// firstLevel over the scratch's pair and result buffers.
func newCRArena(n int) *crArena {
	return &crArena{
		levels: newLevels(n),
		sc: mergeScratch{
			pairs:   make([]model.Pair, 0, n),
			results: make([]bool, n),
			spans:   make([]mergeSpan, 0, (n+3)/4), // ⌈n/4⌉: groups of level 2
		},
	}
}

// mergePairsCR merges answers two at a time — (0,1), (2,3), ... — with all
// tests of the iteration batched into one logical round, mirroring that
// the merges happen simultaneously on disjoint processor groups.
func mergePairsCR(s *model.Session, ar *crArena, answers []Answer) ([]Answer, error) {
	return mergeGroupsCR(s, ar, answers, 2)
}

// groupShape returns the number of cross-answer representative tests
// appendCross emits for a group, Σ_{u<v} K(u)·K(v), and the group's
// (answer, class) slot count, Σ K(u).
//
//ecsort:hotpath
func groupShape(group []Answer) (tests, slots int) {
	sq := 0
	for _, a := range group {
		slots += a.K()
		sq += a.K() * a.K()
	}
	return (slots*slots - sq) / 2, slots
}

// reserve sizes the pair buffer for a logical round of tests and the
// union-find and class tables for groups of up to slots slots, so the
// merges of one level never grow them one group at a time.
//
//ecsort:hotpath
func (sc *mergeScratch) reserve(tests, slots int) {
	if cap(sc.pairs) < tests {
		sc.pairs = make([]model.Pair, 0, tests)
	}
	if cap(sc.classID) < slots {
		sc.classID = make([]int, slots)
		sc.cursor = make([]int, slots)
	}
	if sc.dsu.Len() < slots {
		sc.dsu.Reset(slots)
	}
}

// mergeGroupsCR partitions answers into consecutive groups of size g and
// merges each group, batching every group's cross tests into one logical
// round. A trailing group smaller than g (possibly a single answer) is
// merged or carried over. Outputs are written into the arena's spare
// buffers, which then become current; the input level's buffers are
// recycled two levels on, so callers must not retain answers across calls.
//
//ecsort:hotpath
func mergeGroupsCR(s *model.Session, ar *crArena, answers []Answer, g int) ([]Answer, error) {
	if g < 2 {
		return nil, errSmallGroup
	}
	sc := &ar.sc
	tests, slots := 0, 0
	for start := 0; start < len(answers); start += g {
		t, k := groupShape(answers[start:min(start+g, len(answers))])
		tests, slots = tests+t, max(slots, k)
	}
	sc.reserve(tests, slots)
	sc.pairs = sc.pairs[:0]
	sc.spans = sc.spans[:0]
	for start := 0; start < len(answers); start += g {
		end := min(start+g, len(answers))
		lo := len(sc.pairs)
		sc.pairs = appendCross(sc.pairs, answers[start:end])
		sc.spans = append(sc.spans, mergeSpan{start: start, end: end, lo: lo, hi: len(sc.pairs)})
	}
	res, err := sc.round(s)
	if err != nil {
		return nil, err
	}
	elems, offs, next := ar.spare()
	for _, sp := range sc.spans {
		group := answers[sp.start:sp.end]
		var out Answer
		if len(group) == 1 {
			// Carry-over: copy into the destination pool so the source
			// pool can be recycled next level.
			out, elems, offs = appendAnswer(group[0], elems, offs)
		} else {
			sc.unite(group, res[sp.lo:sp.hi])
			out, elems, offs = sc.buildMerged(group, elems, offs)
		}
		next = append(next, out)
	}
	ar.flip()
	return next, nil
}
