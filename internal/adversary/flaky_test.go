package adversary

import (
	"context"
	"errors"
	"testing"
	"time"

	"ecsort/internal/oracle"
)

func TestFlakyPassthrough(t *testing.T) {
	base := oracle.NewLabel([]int{0, 1, 0})
	f := NewFlaky(base, FlakyConfig{})
	ctx := context.Background()
	v, err := f.TrySame(ctx, 0, 2)
	if err != nil || !v {
		t.Fatalf("TrySame(0,2) = %v, %v", v, err)
	}
	v, err = f.TrySame(ctx, 0, 1)
	if err != nil || v {
		t.Fatalf("TrySame(0,1) = %v, %v", v, err)
	}
	if f.N() != 3 {
		t.Fatalf("N = %d", f.N())
	}
}

func TestFlakyFailAndFlipRates(t *testing.T) {
	base := oracle.NewLabel(make([]int, 2)) // both elements equivalent
	f := NewFlaky(base, FlakyConfig{FailRate: 0.3, FlipRate: 0.3, Seed: 42})
	ctx := context.Background()
	const calls = 2000
	fails, flips := 0, 0
	for c := 0; c < calls; c++ {
		v, err := f.TrySame(ctx, 0, 1)
		switch {
		case errors.Is(err, ErrInjected):
			fails++
		case err != nil:
			t.Fatal(err)
		case !v: // truth is "equal", so false means flipped
			flips++
		}
	}
	if fails < calls/5 || fails > calls/2 {
		t.Fatalf("injected failures = %d of %d, want ≈30%%", fails, calls)
	}
	// Flips are only observable on non-failed calls (~70% of them).
	if flips < calls/10 || flips > calls/2 {
		t.Fatalf("observed flips = %d of %d, want ≈21%%", flips, calls)
	}
	gotCalls, gotFails, gotFlips := f.Counts()
	if gotCalls != calls || int(gotFails) != fails || gotFlips == 0 {
		t.Fatalf("Counts = %d, %d, %d", gotCalls, gotFails, gotFlips)
	}
}

func TestFlakyDeterministicSequence(t *testing.T) {
	run := func() []bool {
		f := NewFlaky(oracle.NewLabel(make([]int, 2)), FlakyConfig{FlipRate: 0.5, Seed: 7})
		out := make([]bool, 100)
		for i := range out {
			v, err := f.TrySame(context.Background(), 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = v
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault sequence diverged at call %d", i)
		}
	}
}

func TestFlakyStuckRespectsContext(t *testing.T) {
	f := NewFlaky(oracle.NewLabel(make([]int, 2)), FlakyConfig{StuckAfter: 1})
	ctx := context.Background()
	if _, err := f.TrySame(ctx, 0, 1); err != nil {
		t.Fatalf("call 1 should pass: %v", err)
	}
	tctx, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := f.TrySame(tctx, 0, 1)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stuck call err = %v, want deadline", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("stuck call did not release on ctx cancellation")
	}
}

func TestFlakyLatency(t *testing.T) {
	f := NewFlaky(oracle.NewLabel(make([]int, 2)), FlakyConfig{Latency: 10 * time.Millisecond})
	start := time.Now()
	if _, err := f.TrySame(context.Background(), 0, 1); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 10*time.Millisecond {
		t.Fatalf("latency not injected: call took %v", d)
	}
	// A call whose deadline passes during the delay fails.
	tctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if _, err := f.TrySame(tctx, 0, 1); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("latency call err = %v, want deadline", err)
	}
	// Cancellation interrupts the delay rather than waiting it out.
	slow := NewFlaky(oracle.NewLabel(make([]int, 2)), FlakyConfig{Latency: time.Hour})
	sctx, scancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer scancel()
	errc := make(chan error, 1)
	go func() {
		_, err := slow.TrySame(sctx, 0, 1)
		errc <- err
	}()
	select {
	case err := <-errc:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("slow call err = %v, want deadline", err)
		}
	case <-time.After(time.Minute):
		t.Fatal("latency call did not release on ctx cancellation")
	}
}

// TestFlakyExpiredContextNeverAnswers: when the delay and the context end
// together, the call fails. A canceled context against a delay that has
// run out by the time the call waits leaves both select cases ready.
func TestFlakyExpiredContextNeverAnswers(t *testing.T) {
	f := NewFlaky(oracle.NewLabel(make([]int, 2)), FlakyConfig{Latency: time.Nanosecond})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 100; i++ {
		if _, err := f.TrySame(ctx, 0, 1); !errors.Is(err, context.Canceled) {
			t.Fatalf("call %d on a canceled context: err = %v, want canceled", i, err)
		}
	}
	// A deadline that has passed before its timer canceled the context.
	if _, err := f.TrySame(pastDeadline{context.Background()}, 0, 1); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("call past its deadline: err = %v, want deadline", err)
	}
}

// pastDeadline is a context whose deadline has passed but which is not
// yet done.
type pastDeadline struct{ context.Context }

func (pastDeadline) Deadline() (time.Time, bool) { return time.Unix(0, 0), true }
