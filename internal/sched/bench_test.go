package sched

import "testing"

func BenchmarkAllPairs(b *testing.B) {
	elems := make([]int, 128)
	for i := range elems {
		elems[i] = i
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AllPairs(elems)
	}
}

func BenchmarkSweep(b *testing.B) {
	team := make([]int, 50)
	targets := make([]int, 1000)
	for i := range team {
		team[i] = 10000 + i
	}
	for i := range targets {
		targets[i] = i
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Sweep(team, targets)
	}
}
