// Package sched builds comparison schedules for the exclusive-read (ER)
// variant of the equivalence class sorting problem.
//
// In ER mode each element may participate in at most one comparison per
// parallel round, so a set of desired tests must be decomposed into rounds
// of pairwise-disjoint pairs. The constant-round, two-class and
// certification algorithms need two schedules:
//
//   - all pairs within one element set (cross-checking class or
//     component representatives), done by the circle method used for
//     round-robin tournaments — |A| rounds (|A|−1 if even);
//   - every target against one member of a team of known-equivalent
//     elements (a component of the equal-tested edges sweeping the rest
//     of the input), |team| targets per round.
//
// The ER merge tree's pair merges (all of A×B for two answers' class
// representatives) rotate inside internal/core's pairPlan, which emits
// each round on demand instead of materializing a schedule.
package sched

import "ecsort/internal/model"

// AllPairs schedules every unordered pair within elems into rounds of
// disjoint pairs using the circle method: fix the last element and rotate
// the rest. For m elements it produces m−1 rounds when m is even and m
// rounds when m is odd, each of ⌊m/2⌋ disjoint pairs.
func AllPairs(elems []int) [][]model.Pair {
	m := len(elems)
	if m < 2 {
		return nil
	}
	// Work over a ring of positions; position m-1 (or a bye when m is odd)
	// stays fixed while the others rotate.
	ring := make([]int, 0, m+1)
	ring = append(ring, elems...)
	bye := -1
	if m%2 == 1 {
		ring = append(ring, bye)
	}
	sz := len(ring)
	roundsN := sz - 1
	rounds := make([][]model.Pair, 0, roundsN)
	// perm holds the rotating positions ring[0..sz-2]; ring[sz-1] is fixed.
	perm := make([]int, sz-1)
	for i := range perm {
		perm[i] = ring[i]
	}
	fixed := ring[sz-1]
	for r := 0; r < roundsN; r++ {
		round := make([]model.Pair, 0, sz/2)
		if x := perm[0]; x != bye && fixed != bye {
			round = append(round, orient(x, fixed))
		}
		for i := 1; i < (sz-1+1)/2; i++ {
			x, y := perm[i], perm[sz-1-i]
			if x != bye && y != bye {
				round = append(round, orient(x, y))
			}
		}
		if len(round) > 0 {
			rounds = append(rounds, round)
		}
		// Rotate: move last to front (classic circle-method step).
		last := perm[len(perm)-1]
		copy(perm[1:], perm[:len(perm)-1])
		perm[0] = last
	}
	return rounds
}

// orient returns the pair with the smaller element first, purely for
// deterministic output.
func orient(x, y int) model.Pair {
	if x > y {
		x, y = y, x
	}
	return model.Pair{A: x, B: y}
}

// Sweep schedules comparisons of every element in targets against the
// members of team, assigning in each round up to len(team) distinct
// targets, one per team member (all pairs disjoint). It is the schedule of
// step 3 of the constant-round algorithm (Theorem 4): a component C of the
// equal-tested edges "sweeps" the rest of the input |C| elements at a
// time. The sets team and targets must be disjoint.
//
// Each target is compared against exactly one team member; which one is
// immaterial because all members of team are known equivalent.
func Sweep(team, targets []int) [][]model.Pair {
	if len(team) == 0 || len(targets) == 0 {
		return nil
	}
	rounds := make([][]model.Pair, 0, (len(targets)+len(team)-1)/len(team))
	for start := 0; start < len(targets); start += len(team) {
		end := min(start+len(team), len(targets))
		round := make([]model.Pair, 0, end-start)
		for i := start; i < end; i++ {
			round = append(round, model.Pair{A: team[i-start], B: targets[i]})
		}
		rounds = append(rounds, round)
	}
	return rounds
}
