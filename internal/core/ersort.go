package core

import (
	"fmt"

	"ecsort/internal/model"
)

// SortER solves equivalence class sorting in the exclusive-read model in
// O(k log n) parallel rounds using n processors (Theorem 2), where k is
// the number of equivalence classes. It runs a level-synchronous binary
// merge tree: at each of the ⌈log n⌉ levels, answers are merged in pairs,
// each merge taking at most k rounds of disjoint representative tests via
// the rotation schedule. Merges at one level cover disjoint element sets,
// so round r of every merge executes as a single parallel round; a level
// therefore costs max over its merges ≤ k rounds.
//
// SortER needs no knowledge of k. The session must be in ER mode.
//
// One arena serves the whole sort, sized once from n: each level is one
// flat class list — elements, shared class boundaries and per-answer
// bounds, with no per-answer header — double-buffered between two sets
// of pools; rotation tests stream into one batch; and every plan is a
// pointer-free record indexing the level and the arena's match backing,
// so the sort never grows a slice. The first level, whose merges take one
// test each, runs as one round written straight into the arena, so the n
// singleton leaves are never stored.
func SortER(s *model.Session) (Result, error) {
	if s.Mode() != model.ER {
		return Result{}, fmt.Errorf("core: SortER requires an ER session, got %v", s.Mode())
	}
	n := s.N()
	if n == 0 {
		return Result{Stats: s.Stats()}, nil
	}
	final, err := sortERArena(s, newERArena(n))
	if err != nil {
		return Result{}, err
	}
	return Result{Classes: final.Classes(), Stats: s.Stats()}, nil
}

// sortERArena runs the Theorem 2 merge tree on an arena sized for the
// session's n and returns the final answer, which views the arena's
// pools — callers that outlive the arena must materialize it (Classes).
// An arena may serve several sorts in turn; each reuse allocates nothing.
//
//ecsort:hotpath
func sortERArena(s *model.Session, ar *erArena) (Answer, error) {
	na, err := ar.firstLevel(s, ar.batch, ar.results)
	for err == nil && na > 1 {
		na, err = mergeLevelER(s, ar)
	}
	if err != nil {
		return Answer{}, err
	}
	last := ar.current()
	return last.answer(0), nil
}

// erArena is the per-sort state of the ER merge tree: the level buffers
// plus the plan state, sized by newERArena from n alone. The first
// level's round and every rotation round test at most ⌊n/2⌋ disjoint
// pairs; mergeLevelER starts from the first level's ⌈n/2⌉ answers, so a
// level runs at most ⌈n/4⌉ plans; and the plans' match state — two
// entries per a-class in match, one per b-class in matchedB — fits in n
// entries each, because the classes of a level partition at most n
// elements. An erArena is not safe for concurrent use.
type erArena struct {
	levels

	plans   []pairPlan
	active  []int32 // indices into plans still merging, in creation order
	spans   []erSpan
	batch   []model.Pair
	results []bool

	classOf  []int32 // element-indexed representative -> class index
	match    []int32 // level-wide backing: per plan, matchOf then its unmatched list
	matchedB []bool  // level-wide backing: per plan, matchedB
}

// erSpan marks one plan's slice of a batched rotation round.
type erSpan struct {
	plan   int32 // index into the level's plans
	lo, hi int32 // its tests occupy batch[lo:hi]
}

func newERArena(n int) *erArena {
	half, quarter := n/2, (n+3)/4 // ⌊n/2⌋ and ⌈n/4⌉
	return &erArena{
		levels:   newLevels(n),
		plans:    make([]pairPlan, 0, quarter),
		active:   make([]int32, 0, quarter),
		spans:    make([]erSpan, 0, quarter),
		batch:    make([]model.Pair, 0, half),
		results:  make([]bool, half),
		classOf:  make([]int32, n),
		match:    make([]int32, n),
		matchedB: make([]bool, n),
	}
}

// mergeLevelER merges the current level's answers pairwise — (0,1),
// (2,3), ... — sharing rounds across the level: the i-th rotation round of
// every active merge is combined into one parallel round of disjoint
// tests. After the level's last round it writes plan i's merged answer as
// output answer i, in plan order, so neighbouring answers share their
// boundary in the spare buffers, which then become current; the input
// level's buffers are recycled two levels on. It returns the new level's
// answer count.
//
//ecsort:hotpath
func mergeLevelER(s *model.Session, ar *erArena) (int, error) {
	lvl := ar.current()
	na := lvl.answers()
	plans := ar.plans[:0]
	mo, mb := 0, 0
	for x := 0; x+1 < na; x += 2 {
		p := ar.newPlan(&lvl, x, x+1, mo, mb)
		mo += 2 * lvl.k(int(p.a))
		mb += lvl.k(int(p.b))
		plans = append(plans, p)
	}

	active := ar.active[:0]
	for i := range plans {
		active = append(active, int32(i))
	}
	batch, spans := ar.batch, ar.spans
	for len(active) > 0 {
		batch, spans = batch[:0], spans[:0]
		still := active[:0]
		for _, pi := range active {
			lo := len(batch)
			batch = plans[pi].emitNext(ar, &lvl, batch)
			if len(batch) == lo { // schedule exhausted
				continue
			}
			spans = append(spans, erSpan{plan: pi, lo: int32(lo), hi: int32(len(batch))})
			still = append(still, pi)
		}
		active = still
		if len(batch) == 0 {
			continue
		}
		res, err := s.RoundBuf(batch, ar.results)
		if err != nil {
			return 0, err
		}
		for _, sp := range spans {
			plans[sp.plan].absorb(ar, batch[sp.lo:sp.hi], res[sp.lo:sp.hi])
		}
	}

	next := ar.spare()
	for i := range plans {
		next.elems, next.offs = plans[i].appendMatched(ar, &lvl, next.elems, next.offs)
		next.seal()
	}
	if na%2 == 1 {
		next.elems, next.offs = appendAnswer(lvl.answer(na-1), next.elems, next.offs)
		next.seal()
	}
	ar.flip(next)
	return next.answers(), nil
}
