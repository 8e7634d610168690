// Package runtime is the persistent parallel execution layer behind
// comparison rounds: a fixed set of long-lived worker goroutines that
// execute chunked index ranges of a round's work, replacing the
// goroutine-per-round spawning the model layer started with.
//
// A Pool never allocates in steady state: jobs are recycled through a
// sync.Pool, work is announced over a fixed channel, and chunks are
// claimed with an atomic cursor, so executing a physical round costs no
// goroutine creation and no garbage. Results are always written by index
// into caller-owned storage, so the output of a parallel run is
// bit-identical to a serial one regardless of how chunks land on
// workers — the determinism guarantee the golden tests pin.
//
// The submitting goroutine always participates in its own job, so a Pool
// makes progress even when every worker is busy with other submitters
// (the sharded service shares one pool across all shard goroutines) and
// a nested Run from inside a chunk cannot deadlock.
package runtime

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Runner executes one chunk of a job: the half-open index range [lo, hi)
// of the work the Run call described. Implementations must be safe for
// concurrent invocation on disjoint ranges and must write any results by
// index, never by append, so parallel execution stays deterministic.
type Runner interface {
	RunChunk(lo, hi int)
}

// Stats is a snapshot of a pool's lifetime counters.
type Stats struct {
	// Workers is the pool's parallel width (goroutines executing chunks,
	// counting the submitter's own participation).
	Workers int
	// Jobs counts parallel jobs dispatched through the worker machinery:
	// the parallel physical rounds of sessions on the pool and, through
	// model.RunPass, the parallel passes algorithms run between rounds,
	// such as the per-group passes of a CR merge level.
	Jobs int64
	// Chunks counts chunks executed across all parallel jobs.
	Chunks int64
	// Inline counts runs executed serially on the submitting goroutine
	// (width 1, single-chunk jobs, or a closed pool). A pass that
	// model.RunPass runs serially — a Workers(1) session's, or one over
	// a single index — never reaches the pool and is not counted.
	Inline int64
}

// job is one parallel run in flight. Workers claim chunks with the next
// cursor and the last finisher signals done; refs delays recycling until
// every goroutine holding the pointer (announcements included) lets go.
type job struct {
	runner Runner
	n      int
	chunk  int
	next   atomic.Int64
	live   atomic.Int64
	refs   atomic.Int64
	done   chan struct{} // buffered(1): one send per job, drained by the submitter
}

// Pool is a persistent worker pool. Create one with NewPool, or use the
// process-wide Shared pool. A Pool is safe for concurrent Run calls from
// many goroutines; Close may only be called once no Run is in flight.
type Pool struct {
	size int
	jobs chan *job

	jobPool sync.Pool
	wg      sync.WaitGroup
	closed  atomic.Bool

	jobsRun   atomic.Int64
	chunksRun atomic.Int64
	inlineRun atomic.Int64
}

// NewPool starts a pool of the given parallel width: size-1 persistent
// worker goroutines plus the submitting goroutine's own participation.
// size <= 0 means runtime.GOMAXPROCS(0). Close the pool to stop the
// workers; the process-wide Shared pool is never closed.
func NewPool(size int) *Pool {
	if size <= 0 {
		size = runtime.GOMAXPROCS(0)
	}
	p := &Pool{
		size: size,
		jobs: make(chan *job, size),
	}
	p.jobPool.New = func() any { return &job{done: make(chan struct{}, 1)} }
	p.wg.Add(size - 1)
	for i := 0; i < size-1; i++ {
		go p.worker()
	}
	return p
}

// shared is the lazily created process-wide pool used by sessions that
// were not given an explicit pool. It is sized to GOMAXPROCS at first
// use and lives for the rest of the process.
var (
	sharedOnce sync.Once
	shared     *Pool
)

// Shared returns the process-wide pool, creating it on first use.
func Shared() *Pool {
	sharedOnce.Do(func() { shared = NewPool(0) })
	return shared
}

// Size returns the pool's parallel width.
func (p *Pool) Size() int { return p.size }

// Stats returns a snapshot of the pool's counters.
func (p *Pool) Stats() Stats {
	return Stats{
		Workers: p.size,
		Jobs:    p.jobsRun.Load(),
		Chunks:  p.chunksRun.Load(),
		Inline:  p.inlineRun.Load(),
	}
}

// Close stops the worker goroutines and waits for them to exit. It is
// idempotent. Runs issued after Close execute inline on the submitting
// goroutine; Close must not race a Run still in flight.
func (p *Pool) Close() {
	if !p.closed.CompareAndSwap(false, true) {
		return
	}
	close(p.jobs)
	p.wg.Wait()
}

// Run executes r over [0, n) with at most par chunks, blocking until
// every chunk has finished. The range is split into ceil(n/ceil(n/par))
// contiguous chunks claimed by the pool's workers and the calling
// goroutine; par <= 1 (or n < 2, or a closed pool) runs the whole range
// inline. Run allocates nothing in steady state.
//
//ecsort:hotpath
func (p *Pool) Run(n, par int, r Runner) { p.RunSplit(n, par, par, r) }

// RunSplit is Run with the chunk count set apart from the width: it
// splits [0, n) into at most chunks contiguous chunks, as Run does into
// par, and runs them on at most width goroutines, the caller included,
// each claiming the next unclaimed chunk as it finishes one. Cutting
// finer than the width lets the goroutines that start first take over
// the chunks of one that starts late. width <= 1 (or chunks <= 1, n < 2,
// or a closed pool) runs the whole range inline.
//
//ecsort:hotpath
func (p *Pool) RunSplit(n, chunks, width int, r Runner) {
	if n <= 0 {
		return
	}
	chunks = min(chunks, n)
	if chunks <= 1 || width <= 1 || p.size <= 1 || p.closed.Load() {
		p.inlineRun.Add(1)
		r.RunChunk(0, n)
		return
	}
	// 2 <= chunks <= n, so chunk < n and nchunks >= 2: parallel dispatch
	// always has at least one chunk to hand out.
	chunk := (n + chunks - 1) / chunks
	nchunks := (n + chunk - 1) / chunk
	j := p.jobPool.Get().(*job)
	j.runner, j.n, j.chunk = r, n, chunk
	j.next.Store(0)
	j.live.Store(int64(nchunks))
	j.refs.Store(1) // the submitter's own hold
	// Announce to at most width-1 peers; the sends are non-blocking so a
	// saturated pool just leaves more chunks to the submitter.
	want := min(nchunks, width, p.size) - 1
	for sent := 0; sent < want; sent++ {
		j.refs.Add(1)
		select {
		case p.jobs <- j:
			continue
		default:
			j.refs.Add(-1)
		}
		break
	}
	p.jobsRun.Add(1)
	p.work(j)
	<-j.done
	p.release(j)
}

// NumChunks reports how many chunks Run splits n units of work into at
// parallel width par — equivalently, the number of RunChunk calls one
// Run(n, par, r) issues on a pool wide enough to go parallel (a
// single-worker or closed pool always runs 1 inline chunk). This is the
// chunk-granularity contract batch-capable oracles amortize against:
// a model.BatchOracle is invoked NumChunks(len(pairs), workers) times
// per physical round instead of len(pairs) times.
func NumChunks(n, par int) int {
	if n <= 0 {
		return 0
	}
	if par > n {
		par = n
	}
	if par <= 1 {
		return 1
	}
	chunk := (n + par - 1) / par
	return (n + chunk - 1) / chunk
}

// worker is the loop of one persistent goroutine.
func (p *Pool) worker() {
	defer p.wg.Done()
	for j := range p.jobs {
		p.work(j)
		p.release(j)
	}
}

// work claims and executes chunks of j until none remain. The goroutine
// that finishes the last live chunk signals the job's done channel.
//
//ecsort:hotpath
func (p *Pool) work(j *job) {
	for {
		c := j.next.Add(1) - 1
		lo := int(c) * j.chunk
		if lo >= j.n {
			return
		}
		hi := lo + j.chunk
		if hi > j.n {
			hi = j.n
		}
		j.runner.RunChunk(lo, hi)
		p.chunksRun.Add(1)
		if j.live.Add(-1) == 0 {
			j.done <- struct{}{}
		}
	}
}

// release drops one hold on j and recycles it once nobody — submitter or
// announced worker, however late it dequeues — references it anymore.
//
//ecsort:hotpath
func (p *Pool) release(j *job) {
	if j.refs.Add(-1) == 0 {
		j.runner = nil
		p.jobPool.Put(j)
	}
}
