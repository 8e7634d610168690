package graphs

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"ecsort/internal/unionfind"
)

func TestEdgesCountAndForm(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	h := NewHamiltonian(10, 3, rng)
	edges := h.Edges()
	if len(edges) != 30 {
		t.Fatalf("edges = %d, want 30", len(edges))
	}
	// Each cycle visits every vertex exactly once as a source and once as
	// a destination.
	for c := 0; c < 3; c++ {
		src := map[int]int{}
		dst := map[int]int{}
		for _, e := range edges[c*10 : (c+1)*10] {
			src[e.A]++
			dst[e.B]++
		}
		for v := 0; v < 10; v++ {
			if src[v] != 1 || dst[v] != 1 {
				t.Fatalf("cycle %d: vertex %d has src=%d dst=%d", c, v, src[v], dst[v])
			}
		}
	}
}

func TestERRoundsDisjointAndComplete(t *testing.T) {
	f := func(seed int64, nRaw, dRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + int(nRaw)%30
		d := 1 + int(dRaw)%4
		h := NewHamiltonian(n, d, rng)
		rounds := h.ERRounds()
		// Round budget: 2 per even cycle, 3 per odd cycle.
		maxRounds := 2 * d
		if n%2 == 1 {
			maxRounds = 3 * d
		}
		if len(rounds) > maxRounds {
			return false
		}
		total := 0
		for _, round := range rounds {
			used := map[int]bool{}
			for _, p := range round {
				if p.A == p.B || used[p.A] || used[p.B] {
					return false
				}
				used[p.A] = true
				used[p.B] = true
				total++
			}
		}
		// Every edge of every cycle appears exactly once overall.
		return total == n*d
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestERRoundsCoverEdgeSet(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := NewHamiltonian(9, 2, rng)
	want := map[[2]int]int{}
	for _, e := range h.Edges() {
		a, b := e.A, e.B
		if a > b {
			a, b = b, a
		}
		want[[2]int{a, b}]++
	}
	got := map[[2]int]int{}
	for _, round := range h.ERRounds() {
		for _, p := range round {
			a, b := p.A, p.B
			if a > b {
				a, b = b, a
			}
			got[[2]int{a, b}]++
		}
	}
	if len(got) != len(want) {
		t.Fatalf("distinct edges: got %d want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("edge %v: got %d want %d", k, got[k], v)
		}
	}
}

// TestEachCycleIsHamiltonian: following one cycle's edges from any
// vertex visits all n vertices before it comes back, so each cycle is a
// single n-cycle, not a union of shorter ones.
func TestEachCycleIsHamiltonian(t *testing.T) {
	f := func(seed int64, nRaw, dRaw uint8) bool {
		n := 3 + int(nRaw)%40
		d := 1 + int(dRaw)%4
		edges := NewHamiltonian(n, d, rand.New(rand.NewSource(seed))).Edges()
		for c := 0; c < d; c++ {
			next := make(map[int]int, n)
			for _, e := range edges[c*n : (c+1)*n] {
				next[e.A] = e.B
			}
			start := edges[c*n].A
			steps := 1
			for v := next[start]; v != start && steps <= n; v = next[v] {
				steps++
			}
			if steps != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestHamiltonianUnionConnected: H_d is connected, as each cycle alone
// already is, so on a one-class input the equal edges unite every
// element into one component.
func TestHamiltonianUnionConnected(t *testing.T) {
	for _, tc := range []struct{ n, d int }{{3, 1}, {4, 1}, {50, 2}, {101, 3}} {
		h := NewHamiltonian(tc.n, tc.d, rand.New(rand.NewSource(9)))
		dsu := unionfind.New(tc.n)
		for _, e := range h.Edges() {
			dsu.Union(e.A, e.B)
		}
		if dsu.Sets() != 1 {
			t.Fatalf("n=%d d=%d: %d components, want 1", tc.n, tc.d, dsu.Sets())
		}
	}
}

// TestNewHamiltonianDrawsDPerms: a draw takes exactly d permutations
// from rng and nothing else, so a sort that redraws H_d on the same rng
// gets the same cycles run to run.
func TestNewHamiltonianDrawsDPerms(t *testing.T) {
	const n, d = 17, 3
	rng := rand.New(rand.NewSource(11))
	first := NewHamiltonian(n, d, rng)
	second := NewHamiltonian(n, d, rng)
	replay := rand.New(rand.NewSource(11))
	for _, h := range []*Hamiltonian{first, second} {
		for c, cyc := range h.cycles {
			if want := replay.Perm(n); !slices.Equal(cyc, want) {
				t.Fatalf("cycle %d = %v, want %v", c, cyc, want)
			}
		}
	}
}

func TestDegreeForLambda(t *testing.T) {
	// d(λ) must be finite, positive, and decreasing in λ.
	prev := int(1 << 30)
	for _, l := range []float64{0.05, 0.1, 0.2, 0.3, 0.4} {
		d := DegreeForLambda(l)
		if d < 1 {
			t.Fatalf("d(%v) = %d", l, d)
		}
		if d > prev {
			t.Fatalf("d(%v) = %d not decreasing (prev %d)", l, d, prev)
		}
		prev = d
	}
	// Spot value: λ=0.4 → 8·1.4·ln2/0.16 ≈ 48.5, +1 slack → 50.
	if d := DegreeForLambda(0.4); d != 50 {
		t.Errorf("d(0.4) = %d, want 50", d)
	}
}

func TestDegreeForLambdaPanics(t *testing.T) {
	for _, l := range []float64{0, -1, 0.41, 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("DegreeForLambda(%v) did not panic", l)
				}
			}()
			DegreeForLambda(l)
		}()
	}
}

func TestNewHamiltonianPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	func() {
		defer func() {
			if recover() == nil {
				t.Error("n=2 did not panic")
			}
		}()
		NewHamiltonian(2, 1, rng)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("d=0 did not panic")
			}
		}()
		NewHamiltonian(5, 0, rng)
	}()
}

// TestLargeSubsetHasBigComponent empirically exercises Theorem 3: with
// d = d(λ) cycles, a random class of size λn should contain a connected
// component of size ≥ λn/8 (we check the undirected relaxation the
// algorithm actually uses).
func TestLargeSubsetHasBigComponent(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 300
	lambda := 0.3
	d := DegreeForLambda(lambda)
	size := int(lambda * float64(n))
	for trial := 0; trial < 5; trial++ {
		h := NewHamiltonian(n, d, rng)
		// Random subset W of size λn.
		perm := rng.Perm(n)
		inW := make([]bool, n)
		for _, v := range perm[:size] {
			inW[v] = true
		}
		// Unite only the edges inside W, so the set of any vertex of
		// W holds only vertices of W.
		dsu := unionfind.New(n)
		for _, e := range h.Edges() {
			if inW[e.A] && inW[e.B] {
				dsu.Union(e.A, e.B)
			}
		}
		best := 0
		for _, v := range perm[:size] {
			best = max(best, dsu.SizeOf(v))
		}
		if best < size/8 {
			t.Fatalf("trial %d: largest component in W has %d vertices, want >= %d", trial, best, size/8)
		}
	}
}
