package core

import (
	"errors"
	"fmt"
	"math/rand"

	"ecsort/internal/model"
)

// This file implements the extensions the paper sketches but does not
// spell out: running the CR algorithm without knowing k, and running the
// constant-round algorithm without knowing λ (the halving remark after
// Theorem 4).

// SortCRUnknownK solves the CR problem with no prior knowledge of the
// number of classes k. It runs the two-phase compounding algorithm with
// an adaptive threshold: the phase switch uses the largest class count
// observed in any answer so far (a lower bound on k that converges to k
// as answers grow). Because k only steers scheduling, correctness is
// unconditional; the round count matches SortCR's once the observed count
// reaches k, giving O(k + log log n) rounds overall.
func SortCRUnknownK(s *model.Session) (Result, error) {
	if s.Mode() != model.CR {
		return Result{}, fmt.Errorf("core: SortCRUnknownK requires a CR session, got %v", s.Mode())
	}
	n := s.N()
	if n == 0 {
		return Result{Stats: s.Stats()}, nil
	}
	p := n
	ar := newCRArena(n)
	na, err := ar.firstLevel(s, ar.sc.pairs, ar.sc.results)
	if err != nil {
		return Result{}, err
	}
	kObs := 1

	observe := func() {
		lvl := ar.current()
		for i := 0; i < na; i++ {
			kObs = max(kObs, lvl.k(i))
		}
	}
	observe()

	// Phase 1 with the adaptive threshold 4·kObs².
	for na > 1 && p/na < 4*kObs*kObs {
		if na, err = mergePairsCR(s, ar); err != nil {
			return Result{}, err
		}
		observe()
	}
	// Phase 2, re-deriving c from the current observation each iteration.
	for na > 1 {
		c := p / (na * kObs * kObs)
		if c < 2 {
			c = 2
		}
		g := 2*c + 1
		if g > na {
			g = na
		}
		if na, err = mergeGroupsCR(s, ar, g); err != nil {
			return Result{}, err
		}
		observe()
		// The observation may have jumped past the phase-2 invariant
		// (c ≥ 2); if so, fall back to pairwise merging until processors
		// per answer catch up again.
		for na > 1 && p/na < 4*kObs*kObs {
			if na, err = mergePairsCR(s, ar); err != nil {
				return Result{}, err
			}
			observe()
		}
	}
	last := ar.current()
	return Result{Classes: last.answer(0).Classes(), Stats: s.Stats()}, nil
}

// AdaptiveConstRoundConfig configures SortConstRoundERAdaptive.
type AdaptiveConstRoundConfig struct {
	// StartLambda is the first guess for ℓ/n; it is halved after each
	// failure, per the paper's remark following Theorem 4. Defaults to
	// 0.4 when zero.
	StartLambda float64
	// D and MaxRetries are passed through to each attempt (see
	// ConstRoundConfig).
	D          int
	MaxRetries int
	// Rng drives the random cycles. Required.
	Rng *rand.Rand
}

// ErrAdaptiveExhausted reports that SortConstRoundERAdaptive halved λ down
// to its floor, 4/n, without succeeding.
var ErrAdaptiveExhausted = errors.New("core: adaptive constant-round sort exhausted its λ budget")

// SortConstRoundERAdaptive runs the Theorem 4 algorithm without knowing
// λ: start at StartLambda and halve after every failure. Once the guess
// drops below the true ℓ/n, an attempt succeeds with high probability, so
// the total rounds remain independent of n (a function of the final λ
// only). The halving stops at 4/n, where the anchor threshold λn/8 is
// already below one element.
func SortConstRoundERAdaptive(s *model.Session, cfg AdaptiveConstRoundConfig) (Result, error) {
	if cfg.Rng == nil {
		return Result{}, errors.New("core: AdaptiveConstRoundConfig.Rng is required")
	}
	lambda := cfg.StartLambda
	if lambda == 0 {
		lambda = 0.4
	}
	if lambda <= 0 || lambda > 0.4 {
		return Result{}, fmt.Errorf("core: StartLambda %v outside (0, 0.4]", lambda)
	}
	var minLambda float64
	if n := s.N(); n > 0 {
		minLambda = 4 / float64(n)
	}
	for lambda > 0 {
		res, err := SortConstRoundER(s, ConstRoundConfig{
			Lambda:     lambda,
			D:          cfg.D,
			MaxRetries: cfg.MaxRetries,
			Rng:        cfg.Rng,
		})
		if err == nil {
			return res, nil
		}
		if !errors.Is(err, ErrConstRoundFailed) {
			return Result{}, err
		}
		if lambda <= minLambda {
			break
		}
		lambda /= 2
	}
	return Result{}, ErrAdaptiveExhausted
}
