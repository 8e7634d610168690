package core

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"ecsort/internal/model"
)

// This file is the flat CR merge engine: the hot path behind SortCR,
// SortCRUnknownK, MergeGroupCR, and the incremental folds (FlushIn).
// Every CR group merge is a level merge (levelPass.merge): the answers
// lie on a flat level and merge in consecutive groups. A merge-tree
// level of SortCR has many groups; MergeGroupCR copies its answers onto
// a level of one group (FoldArena.load). A fold loads its pending
// singletons and answer the same way, but asks its tests in two rounds
// (FoldArena.fold) before the same union-find and build. A group's
// cross-representative tests stream into a reusable pair buffer in a
// canonical order, the equality results fold into an int32 union-find
// over the group's (answer, class) slots by re-walking that same order —
// no per-pair bookkeeping is ever stored — and the merged answer is
// written into its destination with two passes. Each step runs as a
// pass over the level's groups on the session's runtime pool. All
// scratch lives in arenas, so steady-state merges allocate nothing
// beyond the output answer's own backing.

// errSmallGroup and errRoundTooWide reject degenerate merge group sizes
// and logical rounds too wide for a level's int32 cuts; predeclared so the
// per-level hot path never touches fmt.
var (
	errSmallGroup   = errors.New("core: merge group size < 2")
	errRoundTooWide = errors.New("core: logical round exceeds 2^31-1 tests")
)

// mergeGroup is the group of answers one merge unites: answers lo..hi-1
// of a level, read straight off its pools. Its slots number the group's
// (answer, class) pairs in order, answer by answer and class by class,
// so they are the level's classes bound[lo]..bound[hi]-1.
type mergeGroup struct {
	lvl    *level
	lo, hi int
}

// appendCross appends every cross-answer representative test of the group
// to dst in canonical order — for each u < v, each class i of answer u
// against each class j of answer v — and returns the extended slice. The
// unite step re-walks the same order, so no pair-to-slot mapping is ever
// materialized.
//
//ecsort:hotpath
func (g *mergeGroup) appendCross(dst []model.Pair) []model.Pair {
	l := g.lvl
	elems := l.elems
	for u := g.lo; u < g.hi; u++ {
		as := l.starts(u)
		for v := u + 1; v < g.hi; v++ {
			bs := l.starts(v)
			for _, i := range as {
				x := elems[i]
				for _, j := range bs {
					dst = append(dst, model.Pair{A: x, B: elems[j]})
				}
			}
		}
	}
	return dst
}

// unite folds the group's equality results into parent, a union-find
// with one entry per slot, and returns the number of merged classes. res
// must hold the answers to the tests appendCross emits for the group, in
// that order. A root holds -1 and every other slot a lower slot of its
// set, so each set's root is its first slot.
//
//ecsort:hotpath
func (g *mergeGroup) unite(parent []int32, res []bool) int {
	for i := range parent {
		parent[i] = -1
	}
	k, idx, bu := len(parent), 0, int32(0)
	for u := g.lo; u < g.hi; u++ {
		ku := int32(g.lvl.k(u))
		bv := bu + ku
		for v := u + 1; v < g.hi; v++ {
			kv := int32(g.lvl.k(v))
			for i := bu; i < bu+ku; i++ {
				for j, same := range res[idx : idx+int(kv)] {
					if same && union(parent, i, bv+int32(j)) {
						k--
					}
				}
				idx += int(kv)
			}
			bv += kv
		}
		bu += ku
	}
	return k
}

// find returns the root of slot x's set, halving the path it walks.
//
//ecsort:hotpath
func find(parent []int32, x int32) int32 {
	for {
		p := parent[x]
		if p < 0 {
			return x
		}
		gp := parent[p]
		if gp < 0 {
			return p
		}
		parent[x] = gp
		x = gp
	}
}

// union joins the sets of slots a and b and reports whether they were
// apart. The lower root becomes the root, so a slot's parent always
// precedes it.
//
//ecsort:hotpath
func union(parent []int32, a, b int32) bool {
	ra, rb := find(parent, a), find(parent, b)
	switch {
	case ra < rb:
		parent[rb] = ra
	case rb < ra:
		parent[ra] = rb
	default:
		return false
	}
	return true
}

// buildMerged writes the united group as one flat answer: its members
// into elems, and the end of each merged class into ends, one entry per
// class unite counted. elems is cut from the merged level's pool at the
// group's element range on the level, and the ends are absolute in that
// pool. Output
// classes are ordered by the first slot of each united set and members
// concatenate in slot order — exactly the ordering the map-based engine
// produced, so results are bit-for-bit identical. It consumes the
// union-find: call unite for the group first.
//
//ecsort:hotpath
func (g *mergeGroup) buildMerged(parent []int32, elems, ends []int) {
	l := g.lvl
	offs := l.offs[l.bound[g.lo] : l.bound[g.hi]+1] // slot s is class offs[s]..offs[s+1]
	// Pass 1: number the classes by first slot and total their sizes. A
	// visited slot keeps its class c as -2-c, and a slot's parent is an
	// earlier slot, so one hop finds the class; a root (-1) opens the
	// next one.
	k := 0
	for slot, p := range parent {
		size := offs[slot+1] - offs[slot]
		if p >= 0 {
			code := parent[p]
			parent[slot] = code
			ends[-2-code] += size
		} else {
			parent[slot] = int32(-2 - k)
			ends[k] = size
			k++
		}
	}
	// Sizes to write cursors: each class's cursor starts at its first
	// position and finishes at its end.
	base := offs[0]
	at := base
	for c, size := range ends {
		ends[c] = at
		at += size
	}
	// Pass 2: place members in slot order.
	for slot, code := range parent {
		cls := l.elems[offs[slot]:offs[slot+1]]
		c := -2 - code
		at := ends[c]
		if len(cls) == 1 { // most classes of the low levels; cheaper than copy's call
			elems[at-base] = cls[0]
		} else {
			copy(elems[at-base:], cls)
		}
		ends[c] = at + len(cls)
	}
}

// grow returns s resized to length n, reusing its backing when the
// capacity allows and otherwise allocating max(n, 2·cap(s)), so a buffer
// that keeps growing reallocates only O(log n) times. The contents are
// not kept.
//
//ecsort:hotpath
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, max(n, 2*cap(s)))
	}
	return s[:n]
}

// foldPool recycles the arenas of MergeGroupCR, keeping its steady state
// allocation-free beyond the merged answer. Long-lived callers own their
// scratch: SortCR in its crArena, the incremental folds in a FoldArena.
var foldPool = sync.Pool{New: func() any { return new(FoldArena) }}

// MergeGroupCR merges a whole group of answers in the CR model with one
// logical round containing every cross-answer representative test — the
// compounding step of phase 2 of the Theorem 1 algorithm. Matching classes
// are united transitively. The group is copied onto a pooled arena's
// level and merged as one group into fresh storage.
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
	ar := foldPool.Get().(*FoldArena)
	defer foldPool.Put(ar)
	lvl := ar.load(nil, group...)
	out, err := ar.sc.merge(s, lvl, level{bound: ar.bound}, len(group))
	if err != nil {
		return Answer{}, err
	}
	ar.bound = out.bound
	return out.answer(0), nil
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
// whose offsets must end at len(elems), and returns the extended pools:
// the ER carry-over path for an answer with no partner, so the source
// pool can be recycled next level, and how FoldArena.load copies the
// answers of a group onto its level.
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
// its variants: the level buffers and the level-merge scratch, whose pair
// and result buffers hold a logical round of n tests, one per processor,
// and whose union-find holds one slot per class of a level. Only a
// logical round wider than n tests grows the pair and result buffers.
type crArena struct {
	levels
	sc levelPass
}

// newCRArena sizes the arena for n elements. Its first level comes from
// firstLevel over the scratch's pair and result buffers.
func newCRArena(n int) *crArena {
	return &crArena{
		levels: newLevels(n),
		sc: levelPass{
			pairs:   make([]model.Pair, 0, n),
			results: make([]bool, n),
			cuts:    make([]int32, 0, (n+3)/4+1), // ⌈n/4⌉ groups of level 2, and a leading 0
			parent:  make([]int32, n),            // one slot per class of a level
		},
	}
}

// mergePairsCR merges the current level's answers two at a time — (0,1),
// (2,3), ... — with all tests of the iteration batched into one logical
// round, mirroring that the merges happen simultaneously on disjoint
// processor groups.
func mergePairsCR(s *model.Session, ar *crArena) (int, error) {
	return mergeGroupsCR(s, ar, 2)
}

// mergeGroupsCR merges the current level's answers in consecutive groups
// of size g (see levelPass.merge) into the arena's spare buffers, makes
// the merged level current and returns its answer count. The input
// level's buffers are recycled two levels on.
//
//ecsort:hotpath
func mergeGroupsCR(s *model.Session, ar *crArena, g int) (int, error) {
	next, err := ar.sc.merge(s, ar.current(), ar.spare(), g)
	if err != nil {
		return 0, err
	}
	ar.flip(next)
	return next.answers(), nil
}

// groupTests returns the number of cross-answer representative tests
// appendCross emits for the group of answers start..end-1,
// Σ_{u<v} K(u)·K(v).
//
//ecsort:hotpath
func (l *level) groupTests(start, end int) int {
	sq := 0
	for u := start; u < end; u++ {
		k := l.k(u)
		sq += k * k
	}
	slots := int(l.bound[end] - l.bound[start])
	return (slots*slots - sq) / 2
}

// The passes of a level merge, in order; the level's logical round runs
// between the first two.
const (
	passEmit  = iota // emit each group's cross tests
	passUnite        // unite each group and count its merged classes
	passBuild        // build each group's merged answer in place
)

// levelPass is the scratch of the level merge (merge): the buffers of a
// level's logical round, the groups' cuts into it and the slot
// union-find, and, while a merge runs, the level it reads and the level
// it builds. RunChunk runs one pass of the merge over a chunk of the
// level's groups; group gi is answers gi·g .. gi·g+g-1 of lvl, and a
// short last group, even a single answer, goes through the same passes.
// Each pass writes only its own groups' ranges, all fixed before it
// starts: group gi's tests pairs[cuts[gi]:cuts[gi+1]], its slots in
// parent (one per class of lvl, so its classes' own range), its merged
// class count in next.bound[gi+1], and its merged answer, which fills
// exactly the group's element range of lvl and the class range the
// counts' prefix sums give it. So chunks never share a write, and a
// level comes out the same at every width. The zero value is ready to
// use; the buffers grow by doubling and are kept across merges. A
// levelPass is not safe for concurrent use.
type levelPass struct {
	step    int          // passEmit, passUnite or passBuild
	g       int          // group size
	lvl     level        // the level being merged
	next    level        // the level being built
	pairs   []model.Pair // the level's logical round
	results []bool       // its results, written by Session.RoundBuf
	cuts    []int32      // group gi's tests are pairs[cuts[gi]:cuts[gi+1]]
	parent  []int32      // the union-find, one slot per class of lvl
}

// RunChunk implements runtime.Runner: it runs the current step on groups
// lo..hi-1.
//
//ecsort:hotpath
func (lp *levelPass) RunChunk(lo, hi int) {
	na := lp.lvl.answers()
	for gi := lo; gi < hi; gi++ {
		grp := mergeGroup{lvl: &lp.lvl, lo: gi * lp.g, hi: min(gi*lp.g+lp.g, na)}
		t0, t1 := lp.cuts[gi], lp.cuts[gi+1]
		c0, c1 := lp.lvl.bound[grp.lo], lp.lvl.bound[grp.hi]
		switch lp.step {
		case passEmit:
			grp.appendCross(lp.pairs[t0:t0:t1])
		case passUnite:
			lp.next.bound[gi+1] = int32(grp.unite(lp.parent[c0:c1], lp.results[t0:t1]))
		case passBuild:
			e0, e1 := lp.lvl.offs[c0], lp.lvl.offs[c1]
			k0, k1 := lp.next.bound[gi], lp.next.bound[gi+1]
			grp.buildMerged(lp.parent[c0:c1], lp.next.elems[e0:e1], lp.next.offs[k0+1:k1+1])
		}
	}
}

// run runs step over the level's groups on the session's runtime pool.
//
//ecsort:hotpath
func (lp *levelPass) run(s *model.Session, step, groups int) {
	lp.step = step
	model.RunPass(s, groups, lp)
}

// merge partitions lvl's answers into consecutive groups of size g and
// merges each group, batching every group's cross tests into one logical
// round, and returns the merged level: its answer gi is group gi merged.
// A trailing group smaller than g (possibly a single answer, carried
// over) is merged too. Around the round, the merge runs as three passes
// over the groups on the session's runtime pool (see levelPass), and one
// serial prefix sum of the groups' class counts places their outputs.
//
// The merged level is built in next's pools, of which only the capacity
// is used: a pool too small for the merged level is replaced, by
// doubling. next must share no storage with lvl. A round that ran after
// the session's context ended builds nothing: the context is checked
// again after the round, since the session checks it only before each
// physical round, and on any error merge returns before next's pools
// are written. merge keeps no view of lvl or next once it returns.
//
//ecsort:hotpath
func (lp *levelPass) merge(s *model.Session, lvl, next level, g int) (level, error) {
	if g < 2 {
		return level{}, errSmallGroup
	}
	na := lvl.answers()
	groups := (na + g - 1) / g
	lp.cuts = grow(lp.cuts, groups+1)
	lp.cuts[0] = 0
	tests := 0
	for gi := range groups {
		tests += lvl.groupTests(gi*g, min(gi*g+g, na))
		if tests > math.MaxInt32 {
			return level{}, errRoundTooWide
		}
		lp.cuts[gi+1] = int32(tests)
	}
	lp.lvl, lp.g = lvl, g
	defer lp.release()
	lp.pairs, lp.results = grow(lp.pairs, tests), grow(lp.results, tests)
	lp.run(s, passEmit, groups)
	if _, err := s.RoundBuf(lp.pairs, lp.results); err != nil {
		return level{}, err
	}
	if err := s.Err(); err != nil {
		return level{}, err
	}
	lp.parent = grow(lp.parent, int(lvl.bound[na]))
	next.bound = grow(next.bound, groups+1)
	next.bound[0] = 0
	lp.next = next
	lp.run(s, passUnite, groups)
	nb := lp.next.bound
	for gi := range groups {
		nb[gi+1] += nb[gi]
	}
	lp.next.offs = grow(lp.next.offs, int(nb[groups])+1)
	lp.next.offs[0] = 0
	lp.next.elems = grow(lp.next.elems, lvl.offs[len(lvl.offs)-1])
	lp.run(s, passBuild, groups)
	return lp.next, nil
}

// release drops the merge's views of the level it read and the level it
// built, so the scratch never pins a caller's pools between merges.
//
//ecsort:hotpath
func (lp *levelPass) release() { lp.lvl, lp.next = level{}, level{} }
