package core

import (
	"errors"
	"fmt"
	"math/rand"

	"ecsort/internal/graphs"
	"ecsort/internal/model"
	"ecsort/internal/unionfind"
)

// SortTwoClassER solves the ER problem in O(1) parallel rounds for inputs
// promised to have at most two equivalence classes, with no constraint on
// the smaller class's size. The paper's conclusion notes the k = 2 case
// of its open problem follows from classic parallel fault diagnosis
// [4–6]; the reduction implemented here:
//
//  1. With k ≤ 2, the larger class has ≥ ⌈n/2⌉ elements, so H_d with
//     d = d(0.4) seeds it with a connected component of ≥ n/20 vertices
//     with high probability — test H_d's edges in O(d) rounds.
//  2. Sweep every remaining element against the largest component in
//     O(1) rounds. Matched elements share its class; because k ≤ 2, all
//     unmatched elements must form the other class — no further tests.
//
// The "unmatched ⇒ same class" step is exactly where the two-class
// promise does work a general input cannot: with k ≥ 3 it would lump
// distinct classes together. If the promise is broken, the returned
// partition may be wrong; run Certify afterwards when the promise is not
// trustworthy. ErrConstRoundFailed is reported if the random graph failed
// to seed the majority class after retries (probability e^{−Ω(n)}).
func SortTwoClassER(s *model.Session, maxRetries int, rng *rand.Rand) (Result, error) {
	if s.Mode() != model.ER {
		return Result{}, fmt.Errorf("core: SortTwoClassER requires an ER session, got %v", s.Mode())
	}
	if rng == nil {
		return Result{}, errors.New("core: SortTwoClassER needs an rng")
	}
	n := s.N()
	if n == 0 {
		return Result{Stats: s.Stats()}, nil
	}
	if n < 3 {
		return tinySortER(s, n)
	}
	const lambda = 0.4 // the majority class is at least n/2 ≥ λn
	return constRound(s, graphs.DegreeForLambda(lambda), maxRetries, rng, func(dsu *unionfind.DSU, comps [][]int) (bool, error) {
		// The majority anchor must be large; λn/8 with λ=0.4 is n/20.
		if len(comps[0]) < max(1, n/20) {
			return false, nil
		}
		others, err := sweepAnchors(s, dsu, comps[:1])
		if err != nil {
			return false, err
		}
		// Two-class promise: everything that failed the sweep is one class.
		for _, e := range others {
			dsu.Union(others[0], e)
		}
		return true, nil
	})
}
