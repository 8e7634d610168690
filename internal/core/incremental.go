package core

import (
	"fmt"
	"math"
	"slices"

	"ecsort/internal/model"
)

// Incremental maintains a complete equivalence class sorting answer while
// elements arrive over time — the online counterpart of the batch sorts,
// built from the same Answer merge calculus. Each insert buffers the
// element, and Flush (or any query) folds all buffered elements into the
// main answer in at most two CR rounds: each buffered element against
// the answer's representatives, then only the elements no class matched
// among themselves.
//
// This is the library feature the paper's applications want in steady
// state: a convention where interns keep arriving, a fleet where machines
// come online one by one. A fold is the service's hottest path, so the
// sorter keeps only what outlives a fold — the answer's flat storage in
// one pool, the pending buffer and the seen set — and folds on a
// FoldArena: its own for Flush, or one its owner shares across sorters
// with FlushIn. In steady state a fold allocates nothing.
type Incremental struct {
	session *model.Session
	answer  Answer
	// elems/offs are the answer's backing pools: the answer views their
	// prefixes. Tracking the pools (not capacity-capped answer views)
	// keeps growth amortized: a pool grown by one fold keeps its
	// capacity for all later ones.
	elems   []int
	offs    []int
	pending []int  // buffered elements awaiting the next flush
	seen    []bool // seen[e] reports e was added (universe is fixed)
	added   int
	flushes int
	arena   *FoldArena // Flush's private arena; see ownArena
}

// FoldArena is the scratch of one incremental fold: the level-merge
// scratch (pair and result buffers, cuts, slot union-find), the
// one-group level the fold merges — copies of the pending singletons and
// of the answer — the slots of the pending elements that matched no
// class, and the merged level's bounds. The merged elements and offsets
// go straight into the sorter's pools. The zero value is ready to use;
// buffers grow by doubling and are kept across folds, so an owner that
// folds many sorters one at a time — a service shard — holds one fold's
// scratch instead of one per sorter. The arena holds copies, never a
// view of a sorter. A FoldArena is not safe for concurrent use.
type FoldArena struct {
	sc        levelPass
	lvl       level   // the group being merged, copied in by load
	unmatched []int32 // the slots fold's second round tests
	bound     []int32 // the merged level's bounds: 0 and its class count
}

// load empties the arena's level and copies into it the pending
// elements, if any, as one answer of singleton classes, then the answers
// of group, and returns the level. Unlike an answer's classes, the
// pending singletons are not known to be distinct.
//
//ecsort:hotpath
func (ar *FoldArena) load(pending []int, group ...Answer) level {
	size, classes := len(pending), len(pending)
	for _, a := range group {
		size += a.Size()
		classes += a.K()
	}
	l := level{
		elems: append(grow(ar.lvl.elems, size)[:0], pending...),
		offs:  append(grow(ar.lvl.offs, classes+1)[:0], 0),
		bound: append(grow(ar.lvl.bound, len(group)+2)[:0], 0),
	}
	if len(pending) > 0 {
		for i := range pending {
			l.offs = append(l.offs, i+1)
		}
		l.seal()
	}
	for _, a := range group {
		l.elems, l.offs = appendAnswer(a, l.elems, l.offs)
		l.seal()
	}
	ar.lvl = l
	return l
}

// fold merges lvl — the level load built from p pending elements and an
// answer of k classes — into next's pools as one answer, in two logical
// rounds over the level's slot union-find. The first is the level
// merge's round for the group of its two answers: each pending element,
// in arrival order, against the k representatives (p·k tests), united
// by the level merge's unite. The second tests only the u pending
// elements that matched no class, pairwise in arrival order (u(u−1)/2
// tests), and is skipped when u < 2. Two pending elements that each
// matched a class are never tested against each other, because
// transitivity answers that pair (the knowledge-graph rule of Figure 2).
// With a consistent oracle the united sets are those of one round over
// every pair, so buildMerged writes the same answer. The context is
// checked after each round, since the session checks it only before
// each physical round; on any error fold returns before next's pools
// are written.
//
//ecsort:hotpath
func (ar *FoldArena) fold(s *model.Session, lvl, next level) (level, error) {
	g := mergeGroup{lvl: &lvl, lo: 0, hi: 2}
	p, k := lvl.k(0), lvl.k(1)
	if p*k+p*(p-1)/2 > math.MaxInt32 { // the two rounds' most tests
		return level{}, errRoundTooWide
	}
	res, err := ar.ask(s, g.appendCross(grow(ar.sc.pairs, p*k)[:0]))
	if err != nil {
		return level{}, err
	}
	parent := grow(ar.sc.parent, p+k)
	ar.sc.parent = parent
	classes := g.unite(parent, res)
	ar.unmatched = ar.unmatched[:0]
	for i := range p {
		if !slices.Contains(res[i*k:i*k+k], true) {
			ar.unmatched = append(ar.unmatched, int32(i))
		}
	}
	if u := ar.unmatched; len(u) >= 2 {
		pending := lvl.elems[:p]
		pairs := grow(ar.sc.pairs, len(u)*(len(u)-1)/2)[:0]
		for a, i := range u {
			for _, j := range u[a+1:] {
				pairs = append(pairs, model.Pair{A: pending[i], B: pending[j]})
			}
		}
		if res, err = ar.ask(s, pairs); err != nil {
			return level{}, err
		}
		at := 0
		for a, i := range u {
			for _, j := range u[a+1:] {
				if res[at] && union(parent, i, j) {
					classes--
				}
				at++
			}
		}
	}
	next.bound = grow(next.bound, 2)
	next.bound[0], next.bound[1] = 0, int32(classes)
	next.offs = grow(next.offs, classes+1)
	next.offs[0] = 0
	next.elems = grow(next.elems, len(lvl.elems))
	g.buildMerged(parent, next.elems, next.offs[1:])
	return next, nil
}

// ask runs pairs, kept as the arena's pair buffer, as one logical round
// and returns their results, or the error of a round that failed or ran
// after the session's context ended.
//
//ecsort:hotpath
func (ar *FoldArena) ask(s *model.Session, pairs []model.Pair) ([]bool, error) {
	ar.sc.pairs = pairs
	ar.sc.results = grow(ar.sc.results, len(pairs))
	res, err := s.RoundBuf(pairs, ar.sc.results)
	if err == nil {
		err = s.Err()
	}
	return res, err
}

// NewIncremental creates an incremental sorter over the session's
// elements. Elements must still be drawn from 0..N()-1 (the oracle
// defines the universe); they may be added in any order, each at most
// once. The session must be in CR mode.
func NewIncremental(s *model.Session) (*Incremental, error) {
	if s.Mode() != model.CR {
		return nil, fmt.Errorf("core: Incremental requires a CR session, got %v", s.Mode())
	}
	return &Incremental{session: s, seen: make([]bool, s.N())}, nil
}

// Add buffers element e for classification. It returns an error if e is
// out of range or already added.
func (inc *Incremental) Add(e int) error {
	if e < 0 || e >= inc.session.N() {
		return fmt.Errorf("core: element %d out of range [0,%d)", e, inc.session.N())
	}
	if inc.seen[e] {
		return fmt.Errorf("core: element %d added twice", e)
	}
	inc.seen[e] = true
	inc.added++
	inc.pending = append(inc.pending, e)
	return nil
}

// Flush folds all buffered elements into the answer: p buffered elements
// into an answer of k classes cost p·k tests in one logical round, plus
// u(u−1)/2 in a second round among the u elements that matched no class.
// It folds on the sorter's private arena; see FlushIn for the fold
// itself.
//
//ecsort:hotpath
func (inc *Incremental) Flush() error {
	if len(inc.pending) == 0 {
		return nil
	}
	return FlushIn(inc, inc.ownArena())
}

// ownArena returns Flush's private arena, allocating it on the first
// fold: a sorter folded only through FlushIn never holds one.
func (inc *Incremental) ownArena() *FoldArena {
	if inc.arena == nil {
		inc.arena = new(FoldArena)
	}
	return inc.arena
}

// FlushIn is Flush on a borrowed arena: it folds inc's buffered elements
// into its answer using ar's scratch, so one arena can serve any number
// of sorters folded one at a time. The fold copies the pending
// singletons, then the answer, onto the arena's level and merges them in
// two rounds (see FoldArena.fold) straight into the sorter's answer
// pools, so ar never holds a view of a sorter. Classes, costs and
// emission order are those of Flush. A fold whose context ended, even
// during its last round, commits nothing: the answer and the pending
// buffer stay intact for the retry. In steady state a fold allocates
// nothing: the arena's buffers and the answer pools only grow, by
// doubling.
//
//ecsort:hotpath
func FlushIn(inc *Incremental, ar *FoldArena) error {
	if len(inc.pending) == 0 {
		return nil
	}
	lvl := ar.load(inc.pending, inc.answer)
	out, err := ar.fold(inc.session, lvl, level{elems: inc.elems, offs: inc.offs, bound: ar.bound})
	if err != nil {
		return err
	}
	ar.bound = out.bound
	inc.elems, inc.offs = out.elems, out.offs
	inc.answer = out.answer(0)
	inc.pending = inc.pending[:0]
	inc.flushes++
	return nil
}

// Classes returns the current classes over everything added so far,
// flushing first. The classes are fresh copies sharing one backing array;
// they stay valid across later flushes.
func (inc *Incremental) Classes() ([][]int, error) {
	if err := inc.Flush(); err != nil {
		return nil, err
	}
	return inc.answer.Classes(), nil
}

// ClassOf returns the current class of element e (flushing first), or an
// error if e has not been added. The returned slice is a fresh copy.
func (inc *Incremental) ClassOf(e int) ([]int, error) {
	if e < 0 || e >= len(inc.seen) || !inc.seen[e] {
		return nil, fmt.Errorf("core: element %d not added", e)
	}
	if err := inc.Flush(); err != nil {
		return nil, err
	}
	for i := 0; i < inc.answer.K(); i++ {
		cls := inc.answer.Class(i)
		for _, x := range cls {
			if x == e {
				out := make([]int, len(cls))
				copy(out, cls)
				return out, nil
			}
		}
	}
	panic("core: element added and flushed but not in any class")
}

// Size returns how many elements have been added (buffered or merged).
func (inc *Incremental) Size() int { return inc.added }

// Has reports whether element e has already been added (buffered or
// merged). Callers batching inserts can pre-validate a whole batch with
// Has before committing any Add, keeping the batch atomic.
func (inc *Incremental) Has(e int) bool {
	return e >= 0 && e < len(inc.seen) && inc.seen[e]
}

// Pending returns the number of buffered elements awaiting the next
// Flush.
func (inc *Incremental) Pending() int { return len(inc.pending) }

// Flushes returns how many non-empty flushes have folded batches into
// the answer: the number of folds, each of one or two logical rounds.
func (inc *Incremental) Flushes() int { return inc.flushes }

// Snapshot returns a copy of the classes merged so far, excluding pending
// (unflushed) elements. It never triggers a flush, performs no
// comparisons, and the returned classes share no memory with the sorter
// (they are views into one fresh backing array), so a service can publish
// them to concurrent readers while ingestion continues — the
// copy-on-flush pattern. For an index-carrying flat copy, use Flat.
func (inc *Incremental) Snapshot() [][]int {
	return inc.answer.Classes()
}

// Flat exposes the merged answer's flat storage — elements grouped by
// class and the class offset table — as read-only views that are only
// valid until the next Flush. Snapshot publishers copy these two slices
// instead of materializing per-class allocations.
func (inc *Incremental) Flat() (elems, offs []int) {
	return inc.answer.Flat()
}

// Stats exposes the underlying session's cost.
func (inc *Incremental) Stats() model.Stats { return inc.session.Stats() }

// PendingElements exposes the buffered elements in arrival order, as a
// read-only view valid until the next Add or Flush. Arrival order is
// part of the sorter's determinism contract — the next flush merges
// pending singletons in exactly this order — so checkpointing code must
// persist it as is.
func (inc *Incremental) PendingElements() []int { return inc.pending }

// Restore rebuilds a fresh sorter from checkpointed state: the flat
// answer (elems grouped by class, offs the class-offset table), the
// pending buffer in arrival order, the accumulated session cost, and the
// flush count. After Restore the sorter continues bit-identically to one
// that reached this state by live Adds and Flushes — same classes, same
// stats trajectory — which is the recovery correctness anchor. It must
// be called on a sorter with no prior Adds.
func (inc *Incremental) Restore(elems, offs, pending []int, st model.Stats, flushes int) error {
	if inc.added != 0 || inc.flushes != 0 {
		return fmt.Errorf("core: Restore on a used sorter (%d adds, %d flushes)", inc.added, inc.flushes)
	}
	if len(elems) > 0 && (len(offs) < 2 || offs[0] != 0 || offs[len(offs)-1] != len(elems)) {
		return fmt.Errorf("core: Restore: malformed offset table (len %d over %d elements)", len(offs), len(elems))
	}
	if len(elems) == 0 && len(offs) > 1 {
		return fmt.Errorf("core: Restore: %d class offsets over zero elements", len(offs))
	}
	for i := 1; i < len(offs); i++ {
		if offs[i] <= offs[i-1] {
			return fmt.Errorf("core: Restore: class %d is empty or out of order", i-1)
		}
	}
	mark := func(e int) error {
		if e < 0 || e >= len(inc.seen) {
			return fmt.Errorf("core: Restore: element %d out of range [0,%d)", e, len(inc.seen))
		}
		if inc.seen[e] {
			return fmt.Errorf("core: Restore: element %d appears twice", e)
		}
		inc.seen[e] = true
		return nil
	}
	for _, e := range elems {
		if err := mark(e); err != nil {
			return err
		}
	}
	for _, e := range pending {
		if err := mark(e); err != nil {
			return err
		}
	}
	inc.elems = append(inc.elems[:0], elems...)
	inc.offs = append(inc.offs[:0], offs...)
	if len(elems) > 0 {
		inc.answer = Answer{elems: inc.elems, offs: inc.offs}
	} else {
		inc.answer = Answer{}
	}
	inc.pending = append(inc.pending[:0], pending...)
	inc.added = len(elems) + len(pending)
	inc.flushes = flushes
	inc.session.RestoreStats(st)
	return nil
}
