package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"ecsort/internal/graphs"
	"ecsort/internal/model"
	"ecsort/internal/sched"
	"ecsort/internal/unionfind"
)

// ErrConstRoundFailed reports that the randomized constant-round algorithm
// failed to classify every element with the given λ and retry budget. The
// failure probability is e^{-Ω(n)} for correct λ, so in practice this
// means λ was larger than ℓ/n.
var ErrConstRoundFailed = errors.New("core: constant-round algorithm failed; smallest class may be below λn")

// ConstRoundConfig configures SortConstRoundER.
type ConstRoundConfig struct {
	// Lambda is the guaranteed lower bound on (smallest class size)/n,
	// in (0, 0.4]. Required.
	Lambda float64
	// D overrides the number of Hamiltonian cycles. If 0, the
	// theory-driven constant d(λ) from Theorem 3 is used; that constant
	// is pessimistic (hundreds of cycles for small λ), so experiments
	// commonly set a smaller D and rely on retries.
	D int
	// MaxRetries bounds how many times the algorithm redraws its random
	// cycles after a failure. 0 means 1 attempt, no retries.
	MaxRetries int
	// Rng drives the random Hamiltonian cycles. Required.
	Rng *rand.Rand
}

// SortConstRoundER solves equivalence class sorting in the exclusive-read
// model in O(1) parallel rounds using n processors, provided every
// equivalence class has size at least λn (Theorem 4). The algorithm:
//
//  1. Draw H_d, the union of d = d(λ) random Hamiltonian cycles, and test
//     every edge — at most 3d rounds of disjoint tests (step 2).
//  2. The "true" edges induce connected components; by Theorem 3 every
//     class contains a component of size ≥ λn/8 with high probability.
//     Components that big ("anchors") are cross-checked pairwise (O(1)
//     rounds of disjoint tests via the circle schedule) to merge anchors
//     of the same class.
//  3. Each anchor sweeps all still-unclassified elements |C| at a time
//     (step 3): ⌈targets/|C|⌉ ≤ 8/λ rounds per anchor, and at most
//     ⌊1/λ⌋ anchors, so O(1) rounds in total.
//
// Theorem 3 names strongly connected components of the directed cycle
// edges; the anchors here are connected components of the equal edges.
// An equality test is symmetric, so every equal edge can be traversed
// both ways, and a connected component is never smaller than the
// strongly connected one the theorem promises.
//
// If some element matches no anchor, the random graph failed to seed that
// element's class with a large component; the algorithm redraws and
// retries up to cfg.MaxRetries times and reports ErrConstRoundFailed after
// exhausting them. Following the paper's remark, a caller that does not
// know λ can halve its guess and call again.
func SortConstRoundER(s *model.Session, cfg ConstRoundConfig) (Result, error) {
	if s.Mode() != model.ER {
		return Result{}, fmt.Errorf("core: SortConstRoundER requires an ER session, got %v", s.Mode())
	}
	if cfg.Lambda <= 0 || cfg.Lambda > 0.4 {
		return Result{}, fmt.Errorf("core: lambda %v outside (0, 0.4]", cfg.Lambda)
	}
	if cfg.Rng == nil {
		return Result{}, errors.New("core: ConstRoundConfig.Rng is required")
	}
	n := s.N()
	if n == 0 {
		return Result{Stats: s.Stats()}, nil
	}
	if n < 3 {
		// Too small for Hamiltonian cycles; a single ER round suffices.
		return tinySortER(s, n)
	}
	d := cfg.D
	if d == 0 {
		d = graphs.DegreeForLambda(cfg.Lambda)
	}
	// Anchors: components of size ≥ max(1, ⌊λn/8⌋), per step 3's bound
	// |C| ≥ λn/8 (Theorem 3 with γ = 1/4 gives λn/4; the paper uses the
	// slack λn/8).
	threshold := max(1, int(cfg.Lambda*float64(n)/8))
	return constRound(s, d, cfg.MaxRetries, cfg.Rng, func(dsu *unionfind.DSU, comps [][]int) (bool, error) {
		anchors := comps
		for i, c := range comps {
			if len(c) < threshold {
				anchors = comps[:i]
				break
			}
		}
		if len(anchors) == 0 {
			return false, nil
		}
		// Merge anchors of the same class: all representative pairs via
		// the circle schedule (disjoint per round, ≤ |anchors| rounds).
		reps := make([]int, len(anchors))
		for i, c := range anchors {
			reps[i] = c[0]
		}
		for _, round := range sched.AllPairs(reps) {
			if _, err := uniteRound(s, dsu, round); err != nil {
				return false, err
			}
		}
		unmatched, err := sweepAnchors(s, dsu, anchors)
		return len(unmatched) == 0, err
	})
}

// tinySortER classifies n ∈ {1,2} elements directly.
func tinySortER(s *model.Session, n int) (Result, error) {
	if n == 1 {
		return Result{Classes: [][]int{{0}}, Stats: s.Stats()}, nil
	}
	res, err := s.Round([]model.Pair{{A: 0, B: 1}})
	if err != nil {
		return Result{}, err
	}
	if res[0] {
		return Result{Classes: [][]int{{0, 1}}, Stats: s.Stats()}, nil
	}
	return Result{Classes: [][]int{{0}, {1}}, Stats: s.Stats()}, nil
}

// constRound is the loop the constant-round sorts share. Each attempt
// draws H_d, tests its edges in at most 3d rounds of disjoint pairs and
// unites every equal edge in one union-find. finish gets that union-find
// and its components, largest first with ties broken by smallest member,
// classifies what the components leave and reports whether every element
// found its class; if not, the next attempt draws again, up to
// maxRetries times, and then ErrConstRoundFailed is returned.
func constRound(s *model.Session, d, maxRetries int, rng *rand.Rand, finish func(dsu *unionfind.DSU, comps [][]int) (bool, error)) (Result, error) {
	n := s.N()
	dsu := unionfind.New(n)
	for attempt := 0; ; attempt++ {
		dsu.Reset(n)
		for _, round := range graphs.NewHamiltonian(n, d, rng).ERRounds() {
			if _, err := uniteRound(s, dsu, round); err != nil {
				return Result{}, err
			}
		}
		comps := dsu.Groups()
		sort.SliceStable(comps, func(i, j int) bool { return len(comps[i]) > len(comps[j]) })
		ok, err := finish(dsu, comps)
		if err != nil {
			return Result{}, err
		}
		if ok {
			return Result{Classes: dsu.Groups(), Stats: s.Stats()}, nil
		}
		if attempt >= maxRetries {
			return Result{}, ErrConstRoundFailed
		}
	}
}

// sweepAnchors sweeps every element outside anchors with each anchor in
// turn, |anchor| targets per round (step 3 of Theorem 4), uniting each
// match with its anchor. An element an anchor matched is not swept by
// the next. It returns the elements no anchor matched, in increasing
// order.
func sweepAnchors(s *model.Session, dsu *unionfind.DSU, anchors [][]int) ([]int, error) {
	n := dsu.Len()
	inAnchor := make([]bool, n)
	for _, c := range anchors {
		for _, e := range c {
			inAnchor[e] = true
		}
	}
	var left []int
	for e := 0; e < n; e++ {
		if !inAnchor[e] {
			left = append(left, e)
		}
	}
	for _, anchor := range anchors {
		if len(left) == 0 {
			break
		}
		// Sweep copies the targets into its rounds, so the ones this
		// anchor leaves unmatched can reuse left's storage.
		rounds := sched.Sweep(anchor, left)
		left = left[:0]
		for _, round := range rounds {
			res, err := uniteRound(s, dsu, round)
			if err != nil {
				return nil, err
			}
			for i, eq := range res {
				if !eq {
					left = append(left, round[i].B)
				}
			}
		}
	}
	return left, nil
}

// uniteRound runs one ER round and unites each pair that tested equal.
func uniteRound(s *model.Session, dsu *unionfind.DSU, round []model.Pair) ([]bool, error) {
	res, err := s.Round(round)
	if err != nil {
		return nil, err
	}
	for i, eq := range res {
		if eq {
			dsu.Union(round[i].A, round[i].B)
		}
	}
	return res, nil
}
