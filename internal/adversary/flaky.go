package adversary

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"ecsort/internal/model"
)

// ErrInjected is the failure a Flaky oracle returns for an injected
// fault — the outright-error mode, as opposed to the silent-flip mode.
var ErrInjected = errors.New("adversary: injected oracle fault")

// FlakyConfig tunes the injected unreliability. All three fault modes
// compose; the zero value injects nothing.
type FlakyConfig struct {
	// FailRate is the probability in [0,1] that a call returns
	// ErrInjected instead of an answer.
	FailRate float64
	// FlipRate is the probability in [0,1] that a call silently answers
	// wrong — the noisy-oracle model the repair daemon converges against.
	FlipRate float64
	// Latency delays every call by this much (interruptible by ctx).
	Latency time.Duration
	// StuckAfter, when positive, wedges every call after the first
	// StuckAfter: the call blocks until its context is canceled and then
	// fails. This is the stuck-backend mode that exercises per-call
	// timeouts and the circuit breaker.
	StuckAfter int64
	// Seed makes the fault sequence reproducible.
	Seed int64
}

// Flaky wraps a ground-truth oracle in adversarial unreliability:
// outright errors, silently flipped answers, injected latency, and a
// stuck mode that hangs until the caller's deadline fires. It
// implements the Unreliable contract consumed by oracle.Resilient
// (TrySame with a context), which is how the service's fault-tolerance
// middleware is exercised end to end from tests and chaos runs. A
// mutex serializes the fault draws, so a seeded Flaky produces one
// deterministic fault sequence regardless of which goroutine asks.
type Flaky struct {
	base model.Oracle
	cfg  FlakyConfig

	mu    sync.Mutex
	rng   *rand.Rand
	calls int64
	fails int64
	flips int64
}

// NewFlaky wraps base with the configured fault injection. It panics on
// rates outside [0,1]; the service validates specs before building.
func NewFlaky(base model.Oracle, cfg FlakyConfig) *Flaky {
	if cfg.FailRate < 0 || cfg.FailRate > 1 || cfg.FlipRate < 0 || cfg.FlipRate > 1 {
		panic(fmt.Sprintf("adversary: fault rates out of [0,1]: fail %v, flip %v", cfg.FailRate, cfg.FlipRate))
	}
	return &Flaky{base: base, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// N returns the wrapped oracle's universe size.
func (f *Flaky) N() int { return f.base.N() }

// TrySame answers one equivalence test through the fault injector. The
// fault draws (fail, flip) are consumed from the seeded stream before
// any delay, so the sequence of injected faults is a deterministic
// function of the call order even under latency.
func (f *Flaky) TrySame(ctx context.Context, i, j int) (bool, error) {
	f.mu.Lock()
	f.calls++
	stuck := f.cfg.StuckAfter > 0 && f.calls > f.cfg.StuckAfter
	fail := f.cfg.FailRate > 0 && f.rng.Float64() < f.cfg.FailRate
	flip := f.cfg.FlipRate > 0 && f.rng.Float64() < f.cfg.FlipRate
	if fail {
		f.fails++
	}
	if flip {
		f.flips++
	}
	f.mu.Unlock()

	if f.cfg.Latency > 0 {
		t := time.NewTimer(f.cfg.Latency)
		select {
		case <-ctx.Done():
			t.Stop()
			return false, ctx.Err()
		case <-t.C:
			// select picks either case when both are ready, and a passed
			// deadline shows in ctx.Err() only once its own timer has run:
			// a call whose context is over must not answer either way.
			if err := ctx.Err(); err != nil {
				return false, err
			}
			if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
				return false, context.DeadlineExceeded
			}
		}
	}
	if stuck {
		<-ctx.Done()
		return false, fmt.Errorf("adversary: stuck call released: %w", ctx.Err())
	}
	if fail {
		return false, ErrInjected
	}
	//ecsort:ignore oracleround fault-injection wrapper: the session accounts the outer TrySame, not the inner ground-truth call
	ans := f.base.Same(i, j)
	if flip {
		ans = !ans
	}
	return ans, nil
}

// Counts reports how many calls Flaky has served and how many faults of
// each kind it injected.
func (f *Flaky) Counts() (calls, fails, flips int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls, f.fails, f.flips
}
