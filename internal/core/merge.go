package core

import (
	"errors"
	"fmt"
	"math"
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
}

// errSmallGroup and errRoundTooWide reject degenerate merge group sizes
// and logical rounds too wide for a level's int32 cuts; predeclared so the
// per-level hot path never touches fmt.
var (
	errSmallGroup   = errors.New("core: merge group size < 2")
	errRoundTooWide = errors.New("core: logical round exceeds 2^31-1 tests")
)

// appendCross appends every cross-answer representative test of the group
// to dst in canonical order — for each u < v, each class i of group[u]
// against each class j of group[v] — and returns the extended slice. The
// unite step re-walks the same order, so no pair-to-slot mapping is ever
// materialized.
//
//ecsort:hotpath
func appendCross(dst []model.Pair, group []Answer) []model.Pair {
	for u, gu := range group {
		for _, gv := range group[u+1:] {
			dst = appendReps(dst, gu.elems, gu.offs[:gu.K()], gv.elems, gv.offs[:gv.K()])
		}
	}
	return dst
}

// appendReps appends a test of every representative of one answer against
// every representative of another, in class order, and returns the
// extended slice. Each answer is given as its element pool and the
// positions of its class representatives in that pool.
//
//ecsort:hotpath
func appendReps(dst []model.Pair, ae, as, be, bs []int) []model.Pair {
	for _, i := range as {
		x := ae[i]
		for _, j := range bs {
			dst = append(dst, model.Pair{A: x, B: be[j]})
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
// elems/offs destination pools (a level's spare buffers or exact-size
// fresh slices) and returns the extended pools. offs must end at
// len(elems): the new answer's first class starts at that shared
// boundary, and each of its classes appends only its end. Output classes
// are ordered by the first slot of each united component and members
// concatenate in slot order — exactly the ordering the map-based engine
// produced, so results are bit-for-bit identical. Call unite for the
// group first.
//
//ecsort:hotpath
func (sc *mergeScratch) buildMerged(group []Answer, elems, offs []int) ([]int, []int) {
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
	first := len(offs) - 1 // the shared boundary the answer starts at
	for c := 0; c < k; c++ {
		offs = append(offs, offs[len(offs)-1]+sizes[c])
	}
	for c := 0; c < k; c++ {
		sizes[c] = offs[first+c]
	}
	// Pass 2: place members in slot order.
	elems = growInts(elems, offs[len(offs)-1])
	slot = 0
	for _, a := range group {
		for i := 0; i < a.K(); i++ {
			c := classID[sc.dsu.Find(slot)]
			cls := a.Class(i)
			copy(elems[sizes[c]:], cls)
			sizes[c] += len(cls)
			slot++
		}
	}
	return elems, offs
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
	elems, offs := sc.buildMerged(group, make([]int, 0, size), append(make([]int, 0, sc.dsu.Len()+1), 0))
	return Answer{elems: elems, offs: offs}, nil
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

// level is one level of a merge tree in flat form. Its answers' classes
// lie back to back in elems, and neighbouring classes and answers share
// their boundaries: class c occupies elems[offs[c]:offs[c+1]], and answer
// i owns classes bound[i]..bound[i+1]-1. A level of C classes and A
// answers therefore stores C+1 offsets and A+1 bounds, and a view of one
// of its answers (answer) carries offsets that are absolute in elems.
type level struct {
	elems []int
	offs  []int
	bound []int32
}

// answers returns the number of answers on the level.
//
//ecsort:hotpath
func (l *level) answers() int { return len(l.bound) - 1 }

// k returns the number of classes of answer i.
//
//ecsort:hotpath
func (l *level) k(i int) int { return int(l.bound[i+1] - l.bound[i]) }

// starts returns the positions in elems of answer i's class
// representatives: its classes' first members.
//
//ecsort:hotpath
func (l *level) starts(i int) []int { return l.offs[l.bound[i]:l.bound[i+1]] }

// answer returns answer i as a read-only view over the level's pools.
//
//ecsort:hotpath
func (l *level) answer(i int) Answer {
	return Answer{elems: l.elems, offs: l.offs[l.bound[i] : l.bound[i+1]+1]}
}

// seal ends the answer whose classes were appended since the last bound.
//
//ecsort:hotpath
func (l *level) seal() { l.bound = append(l.bound, int32(len(l.offs)-1)) }

// levels double-buffers the flat storage of a merge tree's levels: the
// element, offset and bound pools of the current level and of the level
// being built from it. The n singleton leaves are never stored:
// firstLevel writes level 1 straight into the first buffers, so those
// hold levels 1, 3, 5, … (at most ⌈n/2⌉ answers) and the second buffers
// levels 2, 4, … (at most ⌈n/4⌉). Every buffer is sized once from n: a
// level covers at most n elements in at most n classes, so each offset
// pool holds n+1 entries, and the bound pools ⌈n/2⌉+1 and ⌈n/4⌉+1. No
// pool holds a pointer, and the level being built never shares a buffer
// with the level it reads.
type levels struct {
	elems [2][]int
	offs  [2][]int
	bound [2][]int32
	cur   int // index of the buffers holding the current level
}

// newLevels sizes the buffers for n elements: the first set for level 1's
// ⌈n/2⌉ answers, the second for level 2's ⌈n/4⌉.
func newLevels(n int) levels {
	half, quarter := n-n/2, (n+3)/4
	return levels{
		elems: [2][]int{make([]int, n), make([]int, 0, n)},
		offs:  [2][]int{make([]int, 0, n+1), make([]int, 0, n+1)},
		bound: [2][]int32{make([]int32, 0, half+1), make([]int32, 0, quarter+1)},
	}
}

// firstLevel builds level 1 of the merge tree, makes it current and
// returns its answer count. Level 1 merges the singletons 2i and 2i+1 for
// every i, which in both the ER and the CR tree is the single test
// (2i, 2i+1): the ⌊n/2⌋ tests run as one logical round through batch and
// results, so the session validates, splits and charges them like any
// round. The level's element pool is the identity permutation: answer i
// owns elements 2i and 2i+1 as one class or two, and element n−1 is
// carried over alone when n is odd.
//
//ecsort:hotpath
func (lv *levels) firstLevel(s *model.Session, batch []model.Pair, results []bool) (int, error) {
	elems := lv.elems[0]
	n := len(elems)
	batch = batch[:0]
	for i := 0; i+1 < n; i += 2 {
		batch = append(batch, model.Pair{A: i, B: i + 1})
	}
	res, err := s.RoundBuf(batch, results)
	if err != nil {
		return 0, err
	}
	for i := range elems {
		elems[i] = i
	}
	l := level{elems: elems, offs: append(lv.offs[0][:0], 0), bound: append(lv.bound[0][:0], 0)}
	for i, same := range res {
		if !same {
			l.offs = append(l.offs, 2*i+1)
		}
		l.offs = append(l.offs, 2*i+2)
		l.seal()
	}
	if n%2 == 1 {
		l.offs = append(l.offs, n)
		l.seal()
	}
	lv.offs[0], lv.bound[0], lv.cur = l.offs, l.bound, 0
	return l.answers(), nil
}

// current returns the current level.
//
//ecsort:hotpath
func (lv *levels) current() level {
	c := lv.cur
	return level{elems: lv.elems[c], offs: lv.offs[c], bound: lv.bound[c]}
}

// spare returns the emptied buffers the next level is built into: no
// elements, and the leading offset and bound 0.
//
//ecsort:hotpath
func (lv *levels) spare() level {
	d := 1 - lv.cur
	return level{elems: lv.elems[d][:0], offs: append(lv.offs[d][:0], 0), bound: append(lv.bound[d][:0], 0)}
}

// flip makes next, the level built in the spare buffers, current.
//
//ecsort:hotpath
func (lv *levels) flip(next level) {
	d := 1 - lv.cur
	lv.elems[d], lv.offs[d], lv.bound[d] = next.elems, next.offs, next.bound
	lv.cur = d
}

// appendAnswer copies a's classes into the elems/offs destination pools,
// whose offsets must end at len(elems) as for buildMerged, and returns
// the extended pools — the carry-over path for an answer with no
// partner, so the source pool can be recycled next level.
//
//ecsort:hotpath
func appendAnswer(a Answer, elems, offs []int) ([]int, []int) {
	if a.K() == 0 {
		return elems, offs
	}
	shift := len(elems) - a.offs[0]
	elems = append(elems, a.span()...)
	for _, o := range a.offs[1:] {
		offs = append(offs, o+shift)
	}
	return elems, offs
}

// crArena is the per-sort state of the batched level merges of SortCR and
// its variants: the level buffers plus the merge scratch, whose pair and
// result buffers hold a logical round of n tests, one per processor. Only
// a logical round wider than that grows the pair buffer, once per level
// and to its exact width.
type crArena struct {
	levels
	sc    mergeScratch
	cuts  []int32  // per group of the level: the end of its tests in sc.pairs
	group []Answer // views of the answers of the group being built
}

// newCRArena sizes the arena for n elements. Its first level comes from
// firstLevel over the scratch's pair and result buffers.
func newCRArena(n int) *crArena {
	return &crArena{
		levels: newLevels(n),
		sc: mergeScratch{
			pairs:   make([]model.Pair, 0, n),
			results: make([]bool, n),
		},
		cuts: make([]int32, 0, (n+3)/4), // ⌈n/4⌉: groups of level 2
	}
}

// mergePairsCR merges the current level's answers two at a time — (0,1),
// (2,3), ... — with all tests of the iteration batched into one logical
// round, mirroring that the merges happen simultaneously on disjoint
// processor groups.
func mergePairsCR(s *model.Session, ar *crArena) (int, error) {
	return mergeGroupsCR(s, ar, 2)
}

// groupShape returns the number of cross-answer representative tests
// appendCross emits for the group of answers start..end-1,
// Σ_{u<v} K(u)·K(v), and the group's (answer, class) slot count, Σ K(u).
//
//ecsort:hotpath
func (l *level) groupShape(start, end int) (tests, slots int) {
	sq := 0
	for u := start; u < end; u++ {
		k := l.k(u)
		sq += k * k
	}
	slots = int(l.bound[end] - l.bound[start])
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

// appendCross is appendCross for the group of answers start..end-1 of the
// level, read straight off its pools: the same tests in the same order,
// with no answer view built.
//
//ecsort:hotpath
func (l *level) appendCross(dst []model.Pair, start, end int) []model.Pair {
	for u := start; u < end; u++ {
		for v := u + 1; v < end; v++ {
			dst = appendReps(dst, l.elems, l.starts(u), l.elems, l.starts(v))
		}
	}
	return dst
}

// mergeGroupsCR partitions the current level's answers into consecutive
// groups of size g and merges each group, batching every group's cross
// tests into one logical round, and returns the new level's answer count.
// A trailing group smaller than g (possibly a single answer) is merged or
// carried over. Outputs are written into the arena's spare buffers, which
// then become current; the input level's buffers are recycled two levels
// on.
//
//ecsort:hotpath
func mergeGroupsCR(s *model.Session, ar *crArena, g int) (int, error) {
	if g < 2 {
		return 0, errSmallGroup
	}
	sc := &ar.sc
	lvl := ar.current()
	na := lvl.answers()
	tests, slots := 0, 0
	for start := 0; start < na; start += g {
		t, k := lvl.groupShape(start, min(start+g, na))
		tests, slots = tests+t, max(slots, k)
	}
	if tests > math.MaxInt32 {
		return 0, errRoundTooWide
	}
	sc.reserve(tests, slots)
	if cap(ar.group) < g {
		ar.group = make([]Answer, 0, g)
	}
	sc.pairs, ar.cuts = sc.pairs[:0], ar.cuts[:0]
	for start := 0; start < na; start += g {
		sc.pairs = lvl.appendCross(sc.pairs, start, min(start+g, na))
		ar.cuts = append(ar.cuts, int32(len(sc.pairs)))
	}
	res, err := sc.round(s)
	if err != nil {
		return 0, err
	}
	next := ar.spare()
	lo := int32(0)
	for gi, hi := range ar.cuts {
		group := ar.group[:0]
		for u := gi * g; u < min(gi*g+g, na); u++ {
			group = append(group, lvl.answer(u))
		}
		if len(group) == 1 {
			// Carry-over: copy into the destination pool so the source
			// pool can be recycled next level.
			next.elems, next.offs = appendAnswer(group[0], next.elems, next.offs)
		} else {
			sc.unite(group, res[lo:hi])
			next.elems, next.offs = sc.buildMerged(group, next.elems, next.offs)
		}
		next.seal()
		lo = hi
	}
	ar.flip(next)
	return next.answers(), nil
}
