// Package graphs provides the graph substrate for the constant-round ECS
// algorithm of Theorem 4: unions of random Hamiltonian cycles (the H_d
// construction of Goodrich, Theorem 3), their edges split into rounds of
// disjoint pairs, and the number of cycles d(λ) the theorem needs.
package graphs

import (
	"math"
	"math/rand"

	"ecsort/internal/model"
)

// Hamiltonian is the directed graph H_d on n vertices formed by the union
// of d independent uniformly random Hamiltonian cycles. Theorem 3
// guarantees that, for suitable constant d = d(λ), every vertex subset of
// size λn induces a strongly connected component of size > γλn with high
// probability (γ = 1/4 in the paper's instantiation).
type Hamiltonian struct {
	n      int
	cycles [][]int // cycles[c] is a permutation of 0..n-1
}

// NewHamiltonian draws d independent random Hamiltonian cycles on n
// vertices using rng. It panics if n < 3 or d < 1 (a Hamiltonian cycle
// needs at least 3 vertices).
func NewHamiltonian(n, d int, rng *rand.Rand) *Hamiltonian {
	if n < 3 {
		panic("graphs: Hamiltonian cycles need n >= 3")
	}
	if d < 1 {
		panic("graphs: need at least one cycle")
	}
	h := &Hamiltonian{n: n, cycles: make([][]int, d)}
	for c := range h.cycles {
		h.cycles[c] = rng.Perm(n)
	}
	return h
}

// Edges returns the directed edges of every cycle: for cycle c with vertex
// order v_0, v_1, ..., the edges (v_i, v_{i+1 mod n}).
func (h *Hamiltonian) Edges() []model.Pair {
	edges := make([]model.Pair, 0, h.n*len(h.cycles))
	for _, cyc := range h.cycles {
		for i, v := range cyc {
			edges = append(edges, model.Pair{A: v, B: cyc[(i+1)%h.n]})
		}
	}
	return edges
}

// ERRounds decomposes the edges of every cycle into rounds of
// vertex-disjoint pairs, suitable for the ER model. A cycle on an even
// number of vertices is 2-edge-colorable (alternate edges), and an odd
// cycle needs 3 colors, so the whole union needs at most 3d rounds — the
// constant number of rounds used by step 2 of the Theorem 4 algorithm.
func (h *Hamiltonian) ERRounds() [][]model.Pair {
	var rounds [][]model.Pair
	for _, cyc := range h.cycles {
		rounds = append(rounds, cycleRounds(cyc)...)
	}
	return rounds
}

// cycleRounds splits the edges of one cycle into 2 (even length) or 3 (odd
// length) rounds of vertex-disjoint pairs.
func cycleRounds(cyc []int) [][]model.Pair {
	n := len(cyc)
	edge := func(i int) model.Pair { return model.Pair{A: cyc[i], B: cyc[(i+1)%n]} }
	if n%2 == 0 {
		even := make([]model.Pair, 0, n/2)
		odd := make([]model.Pair, 0, n/2)
		for i := 0; i < n; i += 2 {
			even = append(even, edge(i))
			odd = append(odd, edge(i+1))
		}
		return [][]model.Pair{even, odd}
	}
	// Odd cycle: edges 0,2,4,...,n-3 are vertex-disjoint, edges
	// 1,3,...,n-2 are vertex-disjoint, and the wrap-around edge n-1 goes
	// alone in a third round.
	var a, b []model.Pair
	for i := 0; i+1 < n-1; i += 2 {
		a = append(a, edge(i))
		b = append(b, edge(i+1))
	}
	c := []model.Pair{edge(n - 1)}
	return [][]model.Pair{a, b, c}
}

// DegreeForLambda returns the constant number of Hamiltonian cycles d(λ)
// sufficient for Theorem 3 to hold with high probability with γ = 1/4, for
// 0 < λ ≤ 0.4. Following Section 2.2: the exponent's main term t satisfies
// t ≤ −λ²/8, so any d > 8(1+λ)·ln2/λ² drives the failure probability to
// e^{−Ω(n)}; we add one for slack.
func DegreeForLambda(lambda float64) int {
	if lambda <= 0 || lambda > 0.4 {
		panic("graphs: lambda must be in (0, 0.4]")
	}
	d := 8 * (1 + lambda) * math.Ln2 / (lambda * lambda)
	return int(math.Ceil(d)) + 1
}
