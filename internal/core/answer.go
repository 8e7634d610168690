// Package core implements the equivalence class sorting algorithms of the
// paper: the CR two-phase compounding-comparison algorithm (Theorem 1,
// O(k + log log n) rounds), the ER merge-tree algorithm (Theorem 2,
// O(k log n) rounds), the constant-round ER algorithm for inputs whose
// smallest class has size ≥ λn (Theorem 4), the sequential round-robin
// regimen of Jayapaul et al. used for the distribution-based analysis
// (Section 4), and a naive sequential baseline.
package core

import "ecsort/internal/model"

// Answer is a complete equivalence class sorting answer for a subset of
// the elements: a partition of that subset into its equivalence classes.
// Classes within one answer are mutually known-unequal, so merging two
// answers only requires comparing class representatives pairwise — at most
// k² tests — which is the engine of the compounding-comparison technique.
//
// Storage is flat: one backing slice of elements grouped by class plus a
// class-offset table, so an answer of any shape is at most two
// allocations, classes are contiguous in memory, and the merge engine can
// copy whole answers with memmove instead of per-class slice churn. An
// Answer is immutable once built; answers produced by the merge engine
// may share backing arrays with an arena, so treat values as read-only
// views.
//
// Offsets are absolute in the backing slice. Every answer the package
// returns starts at offset 0, but a view of one answer on a merge-tree
// level (see level) reads the level's shared pools: its offsets start
// where the previous answer's classes end.
type Answer struct {
	// elems is the backing slice: class i occupies elems[offs[i]:offs[i+1]],
	// and its first member is the class representative.
	elems []int
	// offs has K+1 entries; nil for the empty answer.
	offs []int
}

// NewAnswer builds an answer from explicit classes, copying them into
// flat storage. Intended for tests and answer construction at the edges;
// the merge engine builds flat storage directly.
func NewAnswer(classes [][]int) Answer {
	size := 0
	for _, c := range classes {
		size += len(c)
	}
	if size == 0 && len(classes) == 0 {
		return Answer{}
	}
	a := Answer{
		elems: make([]int, 0, size),
		offs:  make([]int, 1, len(classes)+1),
	}
	for _, c := range classes {
		a.elems = append(a.elems, c...)
		a.offs = append(a.offs, len(a.elems))
	}
	return a
}

// K returns the number of classes in the answer.
//
//ecsort:hotpath
func (a Answer) K() int {
	if len(a.offs) == 0 {
		return 0
	}
	return len(a.offs) - 1
}

// Size returns the number of elements covered by the answer.
//
//ecsort:hotpath
func (a Answer) Size() int { return len(a.span()) }

// span returns the covered elements, class by class, as a view into the
// backing slice.
//
//ecsort:hotpath
func (a Answer) span() []int {
	if len(a.offs) == 0 {
		return nil
	}
	return a.elems[a.offs[0]:a.offs[len(a.offs)-1]]
}

// Class returns the members of class i as a read-only view into the
// answer's backing array. Class i's first member is its representative.
//
//ecsort:hotpath
func (a Answer) Class(i int) []int { return a.elems[a.offs[i]:a.offs[i+1]] }

// Rep returns the representative element of class i (its first member).
//
//ecsort:hotpath
func (a Answer) Rep(i int) int { return a.elems[a.offs[i]] }

// Classes materializes the partition as [][]int. The classes are views
// into one freshly copied backing array (two allocations total), sharing
// no memory with the answer, so callers may hold the result across arena
// reuse.
func (a Answer) Classes() [][]int {
	k := a.K()
	if k == 0 {
		return nil
	}
	backing := make([]int, a.Size())
	copy(backing, a.span())
	base := a.offs[0]
	out := make([][]int, k)
	for i := 0; i < k; i++ {
		out[i] = backing[a.offs[i]-base : a.offs[i+1]-base : a.offs[i+1]-base]
	}
	return out
}

// Flat returns the answer's backing element slice and offset table as
// read-only views: class i occupies elems[offs[i]:offs[i+1]]. offs is nil
// for the empty answer. Every answer the package hands out — NewAnswer,
// the Merge* entry points, Incremental.Flat — starts at offset 0:
// offs[0] == 0 and elems holds exactly the answer's elements. Snapshot
// publishers rely on that to copy a whole partition with two memmoves.
func (a Answer) Flat() (elems, offs []int) { return a.elems, a.offs }

// MergePairER merges two answers in the ER model using the Latin-square
// rotation schedule: at most max(K(a), K(b)) rounds of disjoint
// representative tests (the engine of Theorem 2, where this is at most k
// rounds per merge). It copies a and b into a two-answer level and merges
// it as SortER merges each of its levels; for round-sharing across
// independent merges at the same level of a merge tree — with all plan
// state held in an arena sized once per sort — see SortER.
func MergePairER(s *model.Session, a, b Answer) (Answer, error) {
	// The rep→class table is sized by the largest representative, not
	// the universe, so a small merge in a huge universe stays cheap.
	maxRep := 0
	for i := 0; i < a.K(); i++ {
		maxRep = max(maxRep, a.Rep(i))
	}
	for j := 0; j < b.K(); j++ {
		maxRep = max(maxRep, b.Rep(j))
	}
	kMin, kMax := min(a.K(), b.K()), max(a.K(), b.K())
	ar := &erArena{
		plans:    make([]pairPlan, 0, 1),
		active:   make([]int32, 0, 1),
		spans:    make([]erSpan, 0, 1),
		batch:    make([]model.Pair, 0, kMin),
		results:  make([]bool, kMin),
		classOf:  make([]int32, maxRep+1),
		match:    make([]int32, 2*kMin),
		matchedB: make([]bool, kMax),
	}
	in := ar.spare()
	for _, side := range [2]Answer{a, b} {
		in.elems, in.offs = appendAnswer(side, in.elems, in.offs)
		in.seal()
	}
	ar.flip(in)
	if _, err := mergeLevelER(s, ar); err != nil {
		return Answer{}, err
	}
	out := ar.current()
	return out.answer(0), nil
}

// pairPlan is the incremental state of one ER pair-merge. Rotation round r
// pairs class i of the smaller side with class (i+r) mod K of the larger
// side, so every class appears in at most one test per round and all
// K(a)·K(b) class pairs are covered after max(K(a), K(b)) rounds. Classes
// that have already found their partner are skipped: classes within one
// answer are mutually distinct, so a matched class needs no further tests.
//
// A plan is a pointer-free record of int32 indices: its answers are
// positions on the flat level being merged, whose bounds give their class
// ranges, and its match state lives in the arena's level-wide backing —
// match[mo:mo+K(a)] is matchOf (the b-class matched to each a-class, or
// -1), the next K(a) entries hold the list of still-unmatched a-classes
// in ascending order (its first left entries are live), and
// matchedB[mb:mb+K(b)] flags the matched b-classes. The arena's
// element-indexed classOf maps each representative to its class index.
type pairPlan struct {
	a, b int32 // level indices of the merged answers; K(a) <= K(b)
	r    int32 // next rotation round to emit
	mo   int32 // offset of matchOf and the unmatched list in ar.match
	mb   int32 // offset of matchedB in ar.matchedB
	left int32 // length of the unmatched list
}

// newPlan sets up the merge of answers x and y of lvl, smaller side
// first, with its match state at ar.match[mo:] (2·K(a) entries) and
// ar.matchedB[mb:] (K(b) entries).
//
//ecsort:hotpath
func (ar *erArena) newPlan(lvl *level, x, y, mo, mb int) pairPlan {
	if lvl.k(x) > lvl.k(y) {
		x, y = y, x
	}
	as, bs := lvl.starts(x), lvl.starts(y)
	ka := len(as)
	matchOf, unmatched := ar.match[mo:mo+ka], ar.match[mo+ka:mo+2*ka]
	for i, o := range as {
		matchOf[i] = -1
		unmatched[i] = int32(i)
		ar.classOf[lvl.elems[o]] = int32(i)
	}
	matchedB := ar.matchedB[mb : mb+len(bs)]
	for j, o := range bs {
		matchedB[j] = false
		ar.classOf[lvl.elems[o]] = int32(j)
	}
	return pairPlan{a: int32(x), b: int32(y), mo: int32(mo), mb: int32(mb), left: int32(ka)}
}

// emitNext appends the disjoint tests of the next non-empty rotation
// round to dst and returns the extended slice; dst comes back unchanged
// when the schedule is exhausted. The caller must pass the emitted
// tests' results to absorb before calling emitNext again.
//
// A round walks only the unmatched list, dropping the a-classes the last
// round matched as it goes, so once every a-class has its partner the
// schedule ends without visiting the remaining rounds. Representatives
// are read straight off lvl through its bounds: no answer view is built
// per round.
//
//ecsort:hotpath
func (p *pairPlan) emitNext(ar *erArena, lvl *level, dst []model.Pair) []model.Pair {
	as, bs := lvl.starts(int(p.a)), lvl.starts(int(p.b))
	ka, kb := int32(len(as)), int32(len(bs))
	matchOf := ar.match[p.mo : p.mo+ka]
	list := ar.match[p.mo+ka : p.mo+ka+p.left]
	matchedB := ar.matchedB[p.mb : p.mb+kb]
	mark := len(dst)
	for ; p.r < kb && len(list) > 0; p.r++ {
		w := 0
		for _, i := range list {
			if matchOf[i] >= 0 {
				continue
			}
			list[w] = i
			w++
			j := i + p.r
			if j >= kb {
				j -= kb
			}
			if !matchedB[j] {
				dst = append(dst, model.Pair{A: lvl.elems[as[i]], B: lvl.elems[bs[j]]})
			}
		}
		list = list[:w]
		if len(dst) > mark {
			p.r++
			break
		}
	}
	p.left = int32(len(list))
	return dst
}

// absorb records the results of one executed round emitted by emitNext.
//
//ecsort:hotpath
func (p *pairPlan) absorb(ar *erArena, pairs []model.Pair, res []bool) {
	for idx, eq := range res {
		if eq {
			i, j := ar.classOf[pairs[idx].A], ar.classOf[pairs[idx].B]
			ar.match[p.mo+i] = j
			ar.matchedB[p.mb+j] = true
		}
	}
}

// appendMatched writes the finished merge as one flat answer appended to
// the elems/offs destination pools, whose offsets must end at len(elems)
// as for buildMerged, and returns the extended pools. Output classes are
// a's classes in order, each extended by its matched b class if any, then
// b's unmatched classes — exactly the ordering the map-based ER engine
// produced, so results are bit-for-bit identical.
//
//ecsort:hotpath
func (p *pairPlan) appendMatched(ar *erArena, lvl *level, elems, offs []int) ([]int, []int) {
	a, b := lvl.answer(int(p.a)), lvl.answer(int(p.b))
	matchOf, matchedB := ar.match[p.mo:], ar.matchedB[p.mb:]
	for i := 0; i < a.K(); i++ {
		elems = append(elems, a.Class(i)...)
		if j := matchOf[i]; j >= 0 {
			elems = append(elems, b.Class(int(j))...)
		}
		offs = append(offs, len(elems))
	}
	for j := 0; j < b.K(); j++ {
		if !matchedB[j] {
			elems = append(elems, b.Class(j)...)
			offs = append(offs, len(elems))
		}
	}
	return elems, offs
}
