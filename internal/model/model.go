// Package model implements Valiant's parallel comparison model for the
// equivalence class sorting problem.
//
// In this model the only operation that costs anything is an equivalence
// test between two elements; all bookkeeping between comparison rounds is
// free. A Session wraps an Oracle (the ground truth, or an adaptive
// adversary) and executes batches of tests as parallel rounds, charging one
// round per batch and one comparison per test. The session enforces the
// rules of the variant being run:
//
//   - ER (exclusive read): each element may appear in at most one
//     comparison per round, because the elements themselves perform the
//     tests (e.g. agents running a secret-handshake protocol).
//   - CR (concurrent read): an element may appear in any number of
//     comparisons per round, because elements are passive objects (e.g.
//     graphs being tested for isomorphism).
//
// A Session can also enforce the p-processor budget of the model: a logical
// round with more than p comparisons is split into ⌈m/p⌉ physical rounds.
package model

import (
	"context"
	"errors"
	"fmt"
	"runtime"

	rt "ecsort/internal/runtime"
)

// Mode selects the read-concurrency rule of the comparison model.
type Mode int

const (
	// ER is the exclusive-read variant: disjoint comparisons per round.
	ER Mode = iota
	// CR is the concurrent-read variant: arbitrary comparisons per round.
	CR
)

// String returns "ER" or "CR".
func (m Mode) String() string {
	switch m {
	case ER:
		return "ER"
	case CR:
		return "CR"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Oracle answers equivalence tests over elements 0..N()-1.
//
// Implementations must be safe for concurrent use by multiple goroutines;
// a Session may issue the tests of one round in parallel. Adaptive oracles
// (lower-bound adversaries) typically serialize internally with a mutex and
// should be run with Workers(1) for reproducible answers.
type Oracle interface {
	// N returns the number of elements.
	N() int
	// Same reports whether elements i and j are in the same equivalence
	// class. It is never called with i == j.
	Same(i, j int) bool
}

// BatchOracle is an optional Oracle capability: answer a whole chunk of
// equivalence tests in one call. A Session detects it once at
// construction (a plain type assertion on the oracle) and then
// dispatches whole worker-pool chunks instead of individual pairs, so
// an oracle whose answers have per-call overhead — a network round
// trip, a protocol handshake wave, a middleware cycle — pays that
// overhead once per chunk rather than once per pair. Accounting is
// unchanged: comparisons, rounds, max round size, round logs, and
// therefore partition fingerprints are bit-identical to the per-pair
// path.
//
// SameBatch must write out[i] = Same(pairs[i].A, pairs[i].B) for every
// i < len(pairs), with len(out) >= len(pairs), and must not retain
// either slice. Like Same it must be safe for concurrent use: a
// parallel round calls SameBatch concurrently on disjoint chunks.
type BatchOracle interface {
	Oracle
	// SameBatch answers pairs[i] into out[i] for one chunk of a
	// physical round.
	SameBatch(pairs []Pair, out []bool)
}

// Pair is a single equivalence test between elements A and B.
type Pair struct {
	A, B int
}

// Stats summarizes the cost charged to a session so far.
type Stats struct {
	// Comparisons is the total number of equivalence tests executed.
	Comparisons int64
	// Rounds is the number of physical parallel rounds executed.
	// Sequential Compare calls count one round each.
	Rounds int
	// MaxRoundSize is the largest number of comparisons in one physical
	// round.
	MaxRoundSize int
}

// Errors reported by Session.Round for malformed batches. These indicate a
// bug in the calling algorithm, not a property of the input.
var (
	ErrOutOfRange  = errors.New("model: element index out of range")
	ErrSelfCompare = errors.New("model: element compared with itself")
	ErrERConflict  = errors.New("model: element used twice in one ER round")
)

// ErrBadWorkers reports a negative Workers value — a caller bug.
// Workers panics with an error wrapping this sentinel.
var ErrBadWorkers = errors.New("model: negative Workers")

// Option configures a Session.
type Option func(*Session)

// WithRoundLog records the size of every physical round, retrievable via
// RoundLog. Off by default (long sequential runs would log one entry per
// comparison).
func WithRoundLog() Option {
	return func(s *Session) { s.logRounds = true }
}

// Processors caps the number of comparisons per physical round at p. A
// logical round with more comparisons is split into ⌈m/p⌉ physical rounds
// (the split preserves ER-disjointness). p <= 0 means "n processors", the
// paper's default.
func Processors(p int) Option {
	return func(s *Session) { s.procs = p }
}

// Workers sets the parallel width of a round: the maximum number of
// chunks a physical round is split into on the session's runtime pool.
// It bounds the passes an algorithm runs through RunPass the same way,
// such as the per-group passes of a CR merge level; Workers(1) runs
// them on the caller. Workers(0) restores the default,
// runtime.GOMAXPROCS(0) at session creation. Use Workers(1) when the
// oracle's answers depend on query order (adaptive adversaries).
// Negative values are a caller bug and panic with an error wrapping
// ErrBadWorkers.
//
// Actual concurrency is bounded by the pool's width, not by Workers: on
// the default shared pool that is GOMAXPROCS, so an oracle that blocks
// in Same (RPCs, timed waits) and wants more in-flight tests per round
// than cores needs a session on a wider dedicated pool — WithPool over
// runtime.NewPool(w) overlaps w blocking tests even at GOMAXPROCS=1.
func Workers(w int) Option {
	return func(s *Session) {
		switch {
		case w > 0:
			s.workers = w
		case w == 0:
			s.workers = runtime.GOMAXPROCS(0)
		default:
			panic(fmt.Errorf("%w: Workers(%d); use 0 for the GOMAXPROCS default", ErrBadWorkers, w))
		}
	}
}

// WithPool executes the session's parallel rounds on p instead of the
// process-wide shared runtime pool. Sessions never own their pool: a
// pool outlives the sessions that run on it (the sharded service shares
// one pool across every collection), and closing it is the creator's
// job.
func WithPool(p *rt.Pool) Option {
	return func(s *Session) { s.pool = p }
}

// WithContext binds ctx to the session: cancellation is checked between
// physical rounds, so a batch in flight finishes its current round (the
// runtime pool drains cleanly) and the next round returns ctx.Err().
// Sequential algorithms built on Compare must poll Err themselves —
// Compare cannot report cancellation.
func WithContext(ctx context.Context) Option {
	return func(s *Session) { s.ctx = ctx }
}

// Session executes equivalence tests against an Oracle under the rules of
// Valiant's model, accounting rounds and comparisons.
//
// A Session is not safe for concurrent use: algorithms issue rounds one at
// a time (the parallelism is inside a round, not across rounds).
type Session struct {
	oracle  Oracle
	mode    Mode
	n       int
	procs   int
	workers int
	pool    *rt.Pool
	ctx     context.Context // nil means never cancelled
	exec    roundExec       // persistent chunk runner, reused every round

	logRounds bool
	roundLog  []int

	stats Stats

	// scratch for ER-disjointness checks, reused across rounds and
	// allocated by the first ER round (CR sessions never need it).
	lastUsed []int // lastUsed[e] == round stamp when e last appeared
	stamp    int
}

// NewSession creates a session over the given oracle and mode.
func NewSession(o Oracle, mode Mode, opts ...Option) *Session {
	s := &Session{
		oracle:  o,
		mode:    mode,
		n:       o.N(),
		workers: runtime.GOMAXPROCS(0),
	}
	for _, opt := range opts {
		opt(s)
	}
	s.exec.oracle = o
	// Batch capability is resolved once here, not per round: RunChunk
	// branches on a plain nil check in the hot path.
	s.exec.batch, _ = o.(BatchOracle)
	if s.procs <= 0 {
		s.procs = s.n
	}
	if s.procs < 1 {
		s.procs = 1
	}
	return s
}

// Mode returns the session's read-concurrency mode.
func (s *Session) Mode() Mode { return s.mode }

// N returns the number of elements in the underlying oracle.
func (s *Session) N() int { return s.n }

// Stats returns the cost accounted so far.
func (s *Session) Stats() Stats { return s.stats }

// RestoreStats seeds the session's accumulated cost, replacing whatever
// has been accounted so far. It exists for recovery: a service rebuilding
// a collection from a checkpoint restores the checkpointed cost here, so
// stats keep counting bit-identically from where the crashed process left
// off. Restore a fresh session before issuing rounds; overwriting live
// accounting mid-sort is a caller bug.
func (s *Session) RestoreStats(st Stats) { s.stats = st }

// SetContext rebinds the session's cancellation context; Algorithm
// values install their Sort ctx here before issuing rounds. A nil ctx
// removes the binding (never cancelled).
func (s *Session) SetContext(ctx context.Context) { s.ctx = ctx }

// Context returns the session's cancellation context, never nil.
func (s *Session) Context() context.Context {
	if s.ctx == nil {
		//ecsort:ignore ctxflow contract fallback: unbound sessions are documented as never-cancelled
		return context.Background()
	}
	return s.ctx
}

// Err reports the session context's cancellation state: nil while live,
// the context's error once cancelled. Round and RoundBuf consult it
// between physical rounds; sequential algorithms built on Compare must
// poll it in their own loops.
func (s *Session) Err() error {
	if s.ctx == nil {
		return nil
	}
	return s.ctx.Err()
}

// Round executes one logical round of equivalence tests and returns the
// answers, results[i] corresponding to pairs[i]. In ER mode every element
// may appear at most once in pairs. If the batch exceeds the processor
// budget it is split into several physical rounds. An empty batch costs
// nothing.
func (s *Session) Round(pairs []Pair) ([]bool, error) {
	return s.RoundBuf(pairs, nil)
}

// RoundBuf is Round with a caller-provided result buffer: when buf has
// enough capacity the answers are written into it and no allocation
// happens, so a merge loop can reuse one buffer across every round it
// issues. The returned slice aliases buf in that case. A nil (or too
// small) buf behaves exactly like Round.
//
// Validation is fused with execution: ER batches are checked up front
// (the disjointness rule spans the whole logical round), while CR batches
// are validated one physical round at a time, immediately before that
// chunk executes, so the pairs are walked once while cache-hot. A
// malformed pair in a later chunk of a CR batch therefore surfaces only
// after the earlier chunks have executed and been charged — malformed
// batches indicate a bug in the calling algorithm, not a recoverable
// condition, so partial accounting on that path is acceptable.
//
//ecsort:hotpath
func (s *Session) RoundBuf(pairs []Pair, buf []bool) ([]bool, error) {
	if len(pairs) == 0 {
		return nil, nil
	}
	if s.mode == ER {
		if err := s.validateER(pairs); err != nil {
			return nil, err
		}
	}
	var results []bool
	if cap(buf) >= len(pairs) {
		results = buf[:len(pairs)]
	} else {
		results = make([]bool, len(pairs))
	}
	for start := 0; start < len(pairs); start += s.procs {
		if err := s.Err(); err != nil {
			return nil, err
		}
		end := min(start+s.procs, len(pairs))
		chunk := pairs[start:end]
		if s.mode == CR {
			if err := s.validateCR(chunk); err != nil {
				return nil, err
			}
		}
		s.execute(chunk, results[start:end])
		s.stats.Rounds++
		s.stats.Comparisons += int64(end - start)
		if end-start > s.stats.MaxRoundSize {
			s.stats.MaxRoundSize = end - start
		}
		if s.logRounds {
			s.roundLog = append(s.roundLog, end-start)
		}
	}
	return results, nil
}

// RoundLog returns the sizes of all physical rounds executed so far, in
// order. Empty unless the session was built WithRoundLog. The returned
// slice is owned by the session; callers must not modify it.
func (s *Session) RoundLog() []int { return s.roundLog }

// Compare executes a single sequential equivalence test, charged as one
// comparison in its own round. It panics on out-of-range or self
// comparisons, which are always caller bugs.
//
//ecsort:hotpath
func (s *Session) Compare(i, j int) bool {
	if i < 0 || i >= s.n || j < 0 || j >= s.n {
		panic(ErrOutOfRange)
	}
	if i == j {
		panic(ErrSelfCompare)
	}
	s.stats.Rounds++
	s.stats.Comparisons++
	if s.stats.MaxRoundSize < 1 {
		s.stats.MaxRoundSize = 1
	}
	if s.logRounds {
		s.roundLog = append(s.roundLog, 1)
	}
	return s.oracle.Same(i, j)
}

// validateER checks a whole ER batch: range, self-comparison, and the
// exclusive-read disjointness rule, which spans the full logical round.
// The stamp is incremented before use, so it is never zero and the
// zeroed lastUsed table needs no -1 fill.
func (s *Session) validateER(pairs []Pair) error {
	if s.lastUsed == nil {
		s.lastUsed = make([]int, s.n)
	}
	s.stamp++
	for _, p := range pairs {
		if p.A < 0 || p.A >= s.n || p.B < 0 || p.B >= s.n {
			return fmt.Errorf("%w: pair (%d,%d), n=%d", ErrOutOfRange, p.A, p.B, s.n)
		}
		if p.A == p.B {
			return fmt.Errorf("%w: element %d", ErrSelfCompare, p.A)
		}
		if s.lastUsed[p.A] == s.stamp {
			return fmt.Errorf("%w: element %d", ErrERConflict, p.A)
		}
		if s.lastUsed[p.B] == s.stamp {
			return fmt.Errorf("%w: element %d", ErrERConflict, p.B)
		}
		s.lastUsed[p.A] = s.stamp
		s.lastUsed[p.B] = s.stamp
	}
	return nil
}

// validateCR checks one CR physical-round chunk: range and
// self-comparison only — CR has no per-round usage rule, so validation
// needs no state and runs per chunk, right before execution.
func (s *Session) validateCR(pairs []Pair) error {
	n := s.n
	for _, p := range pairs {
		if uint(p.A) >= uint(n) || uint(p.B) >= uint(n) {
			return fmt.Errorf("%w: pair (%d,%d), n=%d", ErrOutOfRange, p.A, p.B, n)
		}
		if p.A == p.B {
			return fmt.Errorf("%w: element %d", ErrSelfCompare, p.A)
		}
	}
	return nil
}

// execute runs the tests of one physical round through RunChunk. A
// session built WithPool hands every round to its pool, which splits it
// into at most Workers chunks claimed by its persistent goroutines, or
// runs it inline and counts it when it is serial (Workers(1) or a single
// test). A session without a pool runs a serial round on the caller.
// Answers are written by index, so results are bit-identical to
// Workers(1) no matter how chunks land on workers, and the steady state
// allocates nothing — no per-round goroutines, closures, or WaitGroups.
func (s *Session) execute(pairs []Pair, out []bool) {
	s.exec.pairs, s.exec.out = pairs, out
	switch {
	case s.pool != nil:
		s.pool.Run(len(pairs), s.workers, &s.exec)
	case s.workers <= 1 || len(pairs) < 2:
		s.exec.RunChunk(0, len(pairs))
	default:
		// The shared pool is resolved lazily so sessions that never reach
		// a parallel round — Workers(1), Compare-only runs — don't spin up
		// the process-wide workers.
		rt.Shared().Run(len(pairs), s.workers, &s.exec)
	}
	s.exec.pairs, s.exec.out = nil, nil
}

// RunPass runs r over [0, n) at s's Workers width, on the pool execute
// runs s's rounds on. The range is cut into passChunks·Workers chunks,
// claimed one at a time by at most Workers goroutines, the caller
// included. A serial pass — Workers(1), or n < 2 — runs on the caller
// and is not counted in the pool's Stats. Algorithms use it for the
// bookkeeping between rounds that splits into independent index ranges,
// such as a CR merge level's per-group passes; r must write by index, so
// the outcome is the same at every width.
//
//ecsort:hotpath
func RunPass(s *Session, n int, r rt.Runner) {
	switch {
	case s.workers <= 1 || n < 2:
		r.RunChunk(0, n)
	case s.pool != nil:
		s.pool.RunSplit(n, passChunks*s.workers, s.workers, r)
	default:
		rt.Shared().RunSplit(n, passChunks*s.workers, s.workers, r)
	}
}

// passChunks is how many chunks per goroutine RunPass cuts a pass into.
// A parked pool worker can take longer to start than one chunk of a
// pass takes to run; with finer chunks the goroutines already running
// take over a late worker's share instead of waiting for it. On a
// 2-vCPU VM, 8 per goroutine made the sort-zeta benchmark's CR merge
// levels faster than 1 in six of six alternating runs.
const passChunks = 8

// roundExec adapts one physical round to the runtime's chunk interface.
// It lives inside the Session so taking its address never allocates.
type roundExec struct {
	oracle Oracle
	batch  BatchOracle // non-nil iff oracle implements BatchOracle
	pairs  []Pair
	out    []bool
}

// RunChunk implements runtime.Runner. A batch-capable oracle answers
// the whole chunk in one call — the amortization this interface exists
// for: oracle invocations per physical round drop from len(pairs) to
// runtime.NumChunks(len(pairs), workers).
//
//ecsort:hotpath
func (e *roundExec) RunChunk(lo, hi int) {
	if e.batch != nil {
		e.batch.SameBatch(e.pairs[lo:hi], e.out[lo:hi])
		return
	}
	pairs, out := e.pairs, e.out
	for i := lo; i < hi; i++ {
		out[i] = e.oracle.Same(pairs[i].A, pairs[i].B)
	}
}
