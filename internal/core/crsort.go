package core

import (
	"fmt"

	"ecsort/internal/model"
)

// SortCR solves equivalence class sorting in the concurrent-read model in
// O(k + log log n) parallel rounds using n processors (Theorem 1), where k
// is the number of equivalence classes. It is the two-phased
// compounding-comparison algorithm of Section 2.1:
//
//  1. Merge the n singleton answers in pairs, (0,1), (2,3), …: one
//     logical round of ⌊n/2⌋ tests. This is phase 1's first iteration
//     (one processor per answer is below 4k² for every k), run as one
//     pass that writes the merged answers directly, so the singletons are
//     never stored.
//  2. Phase 1: while the number of processors per answer is below 4k²,
//     merge answers in pairs (k² representative tests per merge). Each
//     iteration's tests form one logical round that the session splits
//     into ⌈total/n⌉ physical rounds; summed over iterations this is O(k)
//     rounds.
//  3. Phase 2: with c·k² processors per answer, merge groups of 2c+1
//     answers in a single round each ((2c+1)·c·k² ≤ n tests per
//     iteration), so the answer count decays doubly exponentially and
//     O(log log n) iterations remain.
//
// k must be the true number of classes or an upper bound on it; the output
// is correct for any k ≥ 1 (k only steers the phase switch and hence the
// round count). The session must be in CR mode.
//
// One merge arena serves the whole sort: levels double-buffer between two
// sets of flat pools sized by n, so after the first level no per-merge or
// per-pair allocation happens.
func SortCR(s *model.Session, k int) (Result, error) {
	if s.Mode() != model.CR {
		return Result{}, fmt.Errorf("core: SortCR requires a CR session, got %v", s.Mode())
	}
	if k < 1 {
		return Result{}, fmt.Errorf("core: SortCR needs k >= 1, got %d", k)
	}
	n := s.N()
	if n == 0 {
		return Result{Stats: s.Stats()}, nil
	}
	p := n // the model grants one processor per element
	ar := newCRArena(n)
	na, err := ar.firstLevel(s, ar.sc.pairs, ar.sc.results)
	if err != nil {
		return Result{}, err
	}

	// Phase 1: pairwise merges until each answer owns >= 4k² processors.
	for na > 1 && p/na < 4*k*k {
		if na, err = mergePairsCR(s, ar); err != nil {
			return Result{}, err
		}
	}

	// Phase 2: compounding group merges, one physical round per iteration.
	for na > 1 {
		c := p / (na * k * k)
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
	}
	last := ar.current()
	return Result{Classes: last.answer(0).Classes(), Stats: s.Stats()}, nil
}
