package sched

import (
	"testing"
	"testing/quick"

	"ecsort/internal/model"
)

// checkDisjoint verifies no element appears twice within one round.
func checkDisjoint(t *testing.T, rounds [][]model.Pair) {
	t.Helper()
	for r, round := range rounds {
		used := map[int]bool{}
		for _, p := range round {
			if used[p.A] || used[p.B] {
				t.Fatalf("round %d reuses an element: %v", r, round)
			}
			used[p.A] = true
			used[p.B] = true
		}
	}
}

// coverage collects the set of unordered pairs appearing in the rounds and
// fails on duplicates.
func coverage(t *testing.T, rounds [][]model.Pair) map[[2]int]bool {
	t.Helper()
	seen := map[[2]int]bool{}
	for _, round := range rounds {
		for _, p := range round {
			a, b := p.A, p.B
			if a > b {
				a, b = b, a
			}
			key := [2]int{a, b}
			if seen[key] {
				t.Fatalf("pair %v scheduled twice", key)
			}
			seen[key] = true
		}
	}
	return seen
}

func TestAllPairsSmall(t *testing.T) {
	for m := 2; m <= 9; m++ {
		elems := make([]int, m)
		for i := range elems {
			elems[i] = i * 3 // non-contiguous ids
		}
		rounds := AllPairs(elems)
		checkDisjoint(t, rounds)
		seen := coverage(t, rounds)
		want := m * (m - 1) / 2
		if len(seen) != want {
			t.Fatalf("m=%d: covered %d pairs, want %d", m, len(seen), want)
		}
		wantRounds := m - 1
		if m%2 == 1 {
			wantRounds = m
		}
		if len(rounds) > wantRounds {
			t.Fatalf("m=%d: %d rounds, want <= %d", m, len(rounds), wantRounds)
		}
	}
}

func TestAllPairsDegenerate(t *testing.T) {
	if AllPairs(nil) != nil || AllPairs([]int{7}) != nil {
		t.Error("AllPairs on <2 elements should be nil")
	}
}

func TestAllPairsQuick(t *testing.T) {
	f := func(m uint8) bool {
		size := 2 + int(m)%40
		elems := make([]int, size)
		for i := range elems {
			elems[i] = i
		}
		rounds := AllPairs(elems)
		seen := map[[2]int]bool{}
		for _, round := range rounds {
			used := map[int]bool{}
			for _, p := range round {
				if used[p.A] || used[p.B] {
					return false
				}
				used[p.A] = true
				used[p.B] = true
				key := [2]int{min(p.A, p.B), max(p.A, p.B)}
				if seen[key] {
					return false
				}
				seen[key] = true
			}
		}
		return len(seen) == size*(size-1)/2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSweepCoversEveryTarget(t *testing.T) {
	team := []int{100, 101, 102}
	targets := []int{0, 1, 2, 3, 4, 5, 6}
	rounds := Sweep(team, targets)
	if len(rounds) != 3 { // ceil(7/3)
		t.Fatalf("rounds = %d, want 3", len(rounds))
	}
	checkDisjoint(t, rounds)
	covered := map[int]bool{}
	for _, round := range rounds {
		for _, p := range round {
			if p.A < 100 {
				t.Fatalf("pair %v: A should be a team member", p)
			}
			if covered[p.B] {
				t.Fatalf("target %d swept twice", p.B)
			}
			covered[p.B] = true
		}
	}
	for _, tg := range targets {
		if !covered[tg] {
			t.Fatalf("target %d never swept", tg)
		}
	}
}

func TestSweepDegenerate(t *testing.T) {
	if Sweep(nil, []int{1}) != nil || Sweep([]int{1}, nil) != nil {
		t.Error("Sweep with empty inputs should be nil")
	}
}

func TestSweepRoundCount(t *testing.T) {
	f := func(teamSize, targetCount uint8) bool {
		ts := 1 + int(teamSize)%20
		tc := int(targetCount) % 100
		team := make([]int, ts)
		for i := range team {
			team[i] = 1000 + i
		}
		targets := make([]int, tc)
		for i := range targets {
			targets[i] = i
		}
		rounds := Sweep(team, targets)
		want := (tc + ts - 1) / ts
		return len(rounds) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
