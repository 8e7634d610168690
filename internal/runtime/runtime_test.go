package runtime

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// squareRunner writes f(i) by index — the write-by-index contract every
// session round obeys.
type squareRunner struct {
	out []int
}

func (r *squareRunner) RunChunk(lo, hi int) {
	for i := lo; i < hi; i++ {
		r.out[i] = i * i
	}
}

func checkSquares(t *testing.T, out []int) {
	t.Helper()
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestRunMatchesSerial(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	for _, n := range []int{0, 1, 2, 3, 7, 64, 1000} {
		for _, par := range []int{1, 2, 3, 4, 9, 1000} {
			out := make([]int, n)
			p.Run(n, par, &squareRunner{out: out})
			checkSquares(t, out)
		}
	}
}

func TestConcurrentSubmitters(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	const submitters = 8
	const n = 512
	var wg sync.WaitGroup
	outs := make([][]int, submitters)
	for s := 0; s < submitters; s++ {
		outs[s] = make([]int, n)
		wg.Add(1)
		go func(out []int) {
			defer wg.Done()
			for rep := 0; rep < 50; rep++ {
				for i := range out {
					out[i] = -1
				}
				p.Run(n, 3, &squareRunner{out: out})
			}
		}(outs[s])
	}
	wg.Wait()
	for _, out := range outs {
		checkSquares(t, out)
	}
}

func TestInlineFastPaths(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	out := make([]int, 100)
	before := p.Stats()
	p.Run(len(out), 1, &squareRunner{out: out}) // par 1 → inline
	p.Run(1, 8, &squareRunner{out: out[:1]})    // single element → inline
	p.Run(0, 8, &squareRunner{out: nil})        // empty → free
	st := p.Stats()
	if got := st.Inline - before.Inline; got != 2 {
		t.Errorf("inline runs = %d, want 2", got)
	}
	if st.Jobs != before.Jobs {
		t.Errorf("inline runs dispatched %d pool jobs", st.Jobs-before.Jobs)
	}
	checkSquares(t, out)
}

func TestStatsCountJobsAndChunks(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	out := make([]int, 400)
	for i := 0; i < 5; i++ {
		p.Run(len(out), 4, &squareRunner{out: out})
	}
	st := p.Stats()
	if st.Workers != 4 {
		t.Errorf("Workers = %d, want 4", st.Workers)
	}
	if st.Jobs != 5 {
		t.Errorf("Jobs = %d, want 5", st.Jobs)
	}
	if st.Chunks != 20 { // 4 chunks per job
		t.Errorf("Chunks = %d, want 20", st.Chunks)
	}
}

func TestSizeDefaultsToGOMAXPROCS(t *testing.T) {
	p := NewPool(0)
	defer p.Close()
	if p.Size() < 1 {
		t.Errorf("Size = %d, want >= 1", p.Size())
	}
}

func TestCloseIsIdempotentAndRunsInline(t *testing.T) {
	p := NewPool(4)
	p.Close()
	p.Close() // second close must not panic
	out := make([]int, 64)
	p.Run(len(out), 4, &squareRunner{out: out}) // closed pool → inline
	checkSquares(t, out)
	if st := p.Stats(); st.Inline != 1 {
		t.Errorf("Inline = %d, want 1", st.Inline)
	}
}

func TestSharedIsSingleton(t *testing.T) {
	if Shared() != Shared() {
		t.Fatal("Shared() returned different pools")
	}
	if Shared().Size() < 1 {
		t.Fatalf("shared pool width %d", Shared().Size())
	}
}

// nestedRunner resubmits to the same pool from inside a chunk; the
// submitter-participates design must not deadlock even when every worker
// is occupied by the outer job.
type nestedRunner struct {
	pool *Pool
	out  []int
}

func (r *nestedRunner) RunChunk(lo, hi int) {
	for i := lo; i < hi; i++ {
		sub := make([]int, 8)
		r.pool.Run(len(sub), 2, &squareRunner{out: sub})
		r.out[i] = sub[4] // 16
	}
}

func TestNestedRunDoesNotDeadlock(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	out := make([]int, 32)
	p.Run(len(out), 2, &nestedRunner{pool: p, out: out})
	for i, v := range out {
		if v != 16 {
			t.Fatalf("out[%d] = %d, want 16", i, v)
		}
	}
}

// widthRunner records, per chunk, how many chunks are running at once,
// and writes f(i) by index.
type widthRunner struct {
	squareRunner
	running, peak atomic.Int64
}

func (r *widthRunner) RunChunk(lo, hi int) {
	now := r.running.Add(1)
	for {
		peak := r.peak.Load()
		if now <= peak || r.peak.CompareAndSwap(peak, now) {
			break
		}
	}
	time.Sleep(100 * time.Microsecond) // let the announced workers arrive
	r.squareRunner.RunChunk(lo, hi)
	r.running.Add(-1)
}

// TestRunSplitBoundsWidth checks that RunSplit cuts the range into its
// chunk count but runs them on at most width goroutines, however wide
// the pool, and counts one job of that many chunks.
func TestRunSplitBoundsWidth(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	for _, width := range []int{2, 3, 4} {
		out := make([]int, 1000)
		r := &widthRunner{squareRunner: squareRunner{out: out}}
		before := p.Stats()
		p.RunSplit(len(out), 8*width, width, r)
		checkSquares(t, out)
		if peak := r.peak.Load(); peak > int64(width) {
			t.Errorf("width %d: %d chunks ran at once", width, peak)
		}
		st := p.Stats()
		if jobs, chunks := st.Jobs-before.Jobs, st.Chunks-before.Chunks; jobs != 1 || chunks != int64(NumChunks(len(out), 8*width)) {
			t.Errorf("width %d: %d jobs of %d chunks, want 1 of %d", width, jobs, chunks, NumChunks(len(out), 8*width))
		}
	}
	before := p.Stats()
	p.RunSplit(100, 16, 1, &squareRunner{out: make([]int, 100)}) // width 1 → inline
	if st := p.Stats(); st.Inline-before.Inline != 1 || st.Jobs != before.Jobs {
		t.Errorf("width 1 ran as %d jobs and %d inline runs, want 0 and 1", st.Jobs-before.Jobs, st.Inline-before.Inline)
	}
}
