package oracle

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLabelBasics(t *testing.T) {
	o := NewLabel([]int{5, 5, 7, 5, 9})
	if o.N() != 5 {
		t.Fatalf("N = %d", o.N())
	}
	if !o.Same(0, 1) || !o.Same(0, 3) || o.Same(0, 2) || o.Same(2, 4) {
		t.Fatal("Same answers wrong")
	}
	if o.NumClasses() != 3 {
		t.Fatalf("NumClasses = %d", o.NumClasses())
	}
	if o.MinClassSize() != 1 {
		t.Fatalf("MinClassSize = %d", o.MinClassSize())
	}
	classes := o.Classes()
	if len(classes) != 3 || len(classes[0]) != 3 || classes[0][0] != 0 {
		t.Fatalf("classes = %v", classes)
	}
}

func TestLabelDefensiveCopy(t *testing.T) {
	in := []int{1, 2}
	o := NewLabel(in)
	in[0] = 2
	if o.Same(0, 1) {
		t.Fatal("oracle aliases caller slice")
	}
	out := o.Labels()
	out[0] = 99
	if o.Labels()[0] == 99 {
		t.Fatal("Labels leaks internal slice")
	}
}

func TestRandomBalanced(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	o := RandomBalanced(100, 7, rng)
	counts := map[int]int{}
	for _, l := range o.Labels() {
		counts[l]++
	}
	if len(counts) != 7 {
		t.Fatalf("classes = %d, want 7", len(counts))
	}
	for l, c := range counts {
		if c < 100/7 || c > 100/7+1 {
			t.Fatalf("class %d has %d members", l, c)
		}
	}
}

func TestRandomSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	o := RandomSizes([]int{3, 1, 6}, rng)
	if o.N() != 10 {
		t.Fatalf("N = %d", o.N())
	}
	counts := map[int]int{}
	for _, l := range o.Labels() {
		counts[l]++
	}
	if counts[0] != 3 || counts[1] != 1 || counts[2] != 6 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestRandomConstructorsPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cases := []func(){
		func() { RandomBalanced(5, 6, rng) },
		func() { RandomBalanced(5, 0, rng) },
		func() { RandomSizes([]int{2, 0}, rng) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestHandshakeMatchesLabels(t *testing.T) {
	labels := []int{0, 1, 0, 2, 1, 0}
	h := NewHandshake(labels, 99)
	if h.N() != 6 {
		t.Fatalf("N = %d", h.N())
	}
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			if i == j {
				continue
			}
			want := labels[i] == labels[j]
			if got := h.Same(i, j); got != want {
				t.Fatalf("handshake(%d,%d) = %v, want %v", i, j, got, want)
			}
		}
	}
}

func TestHandshakeQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(12)
		labels := make([]int, n)
		for i := range labels {
			labels[i] = rng.Intn(4)
		}
		h := NewHandshake(labels, seed)
		for trial := 0; trial < 20; trial++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i == j {
				continue
			}
			if h.Same(i, j) != (labels[i] == labels[j]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestHandshakeKeysDifferAcrossSeeds(t *testing.T) {
	a := NewHandshake([]int{0, 1}, 1)
	b := NewHandshake([]int{0, 1}, 2)
	if string(agentKey(a, 0)) == string(agentKey(b, 0)) {
		t.Fatal("different master seeds produced the same group key")
	}
}

func TestFaultOracle(t *testing.T) {
	f := NewFault([]uint64{0b101, 0b101, 0b011, 0})
	if f.N() != 4 {
		t.Fatalf("N = %d", f.N())
	}
	if !f.Same(0, 1) || f.Same(0, 2) || f.Same(2, 3) {
		t.Fatal("Same answers wrong")
	}
	if f.NumStates() != 3 {
		t.Fatalf("NumStates = %d", f.NumStates())
	}
	if f.InfectionLoad() != 6 {
		t.Fatalf("InfectionLoad = %d", f.InfectionLoad())
	}
	labels := f.TruthLabels()
	if labels[0] != labels[1] || labels[0] == labels[2] || labels[2] == labels[3] {
		t.Fatalf("labels = %v", labels)
	}
}

func TestRandomInfections(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := RandomInfections(200, 3, 0.5, rng)
	if f.N() != 200 {
		t.Fatalf("N = %d", f.N())
	}
	if k := f.NumStates(); k < 2 || k > 8 {
		t.Fatalf("NumStates = %d, want within [2,8]", k)
	}
	// p=0 and p=1 are degenerate single-state worlds.
	if RandomInfections(50, 4, 0, rng).NumStates() != 1 {
		t.Fatal("p=0 should give one state")
	}
	if RandomInfections(50, 4, 1, rng).NumStates() != 1 {
		t.Fatal("p=1 should give one state")
	}
}

func TestRandomInfectionsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	RandomInfections(5, 65, 0.5, rand.New(rand.NewSource(1)))
}

func TestGraphBasics(t *testing.T) {
	g := NewGraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	if g.NumVertices() != 4 || g.NumEdges() != 2 {
		t.Fatalf("graph counts wrong: %d vertices %d edges", g.NumVertices(), g.NumEdges())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) || g.HasEdge(0, 2) {
		t.Fatal("HasEdge wrong")
	}
	if g.Degree(1) != 2 || g.Degree(3) != 0 {
		t.Fatal("Degree wrong")
	}
}

func TestGraphPanics(t *testing.T) {
	g := NewGraph(3)
	g.AddEdge(0, 1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate edge did not panic")
			}
		}()
		g.AddEdge(1, 0)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("self-loop did not panic")
			}
		}()
		g.AddEdge(2, 2)
	}()
}

func TestIsomorphicBasicCases(t *testing.T) {
	// Path P3 vs P3 relabeled.
	p1 := NewGraph(3)
	p1.AddEdge(0, 1)
	p1.AddEdge(1, 2)
	p2 := NewGraph(3)
	p2.AddEdge(2, 0)
	p2.AddEdge(0, 1)
	if !Isomorphic(p1, p2) {
		t.Fatal("relabeled path not isomorphic")
	}
	// Path P3 vs triangle: same n, different m.
	tri := NewGraph(3)
	tri.AddEdge(0, 1)
	tri.AddEdge(1, 2)
	tri.AddEdge(0, 2)
	if Isomorphic(p1, tri) {
		t.Fatal("path equals triangle")
	}
	// C6 vs two triangles: same n, same m, same degree sequence.
	c6 := NewGraph(6)
	for i := 0; i < 6; i++ {
		c6.AddEdge(i, (i+1)%6)
	}
	twoTri := NewGraph(6)
	twoTri.AddEdge(0, 1)
	twoTri.AddEdge(1, 2)
	twoTri.AddEdge(0, 2)
	twoTri.AddEdge(3, 4)
	twoTri.AddEdge(4, 5)
	twoTri.AddEdge(3, 5)
	if Isomorphic(c6, twoTri) {
		t.Fatal("C6 equals 2×K3")
	}
	// Empty graphs.
	if !Isomorphic(NewGraph(0), NewGraph(0)) || !Isomorphic(NewGraph(3), NewGraph(3)) {
		t.Fatal("empty graphs should be isomorphic")
	}
	if Isomorphic(NewGraph(2), NewGraph(3)) {
		t.Fatal("different sizes isomorphic")
	}
}

// TestIsomorphicWLHardPair: the 4x4 rook's graph vs the Shrikhande graph
// are WL-1 equivalent but non-isomorphic — backtracking must separate
// them. Both are strongly regular srg(16, 6, 2, 2).
func TestIsomorphicWLHardPair(t *testing.T) {
	rook := NewGraph(16)
	id := func(r, c int) int { return 4*r + c }
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			for c2 := c + 1; c2 < 4; c2++ {
				rook.AddEdge(id(r, c), id(r, c2))
			}
			for r2 := r + 1; r2 < 4; r2++ {
				rook.AddEdge(id(r, c), id(r2, c))
			}
		}
	}
	// Shrikhande graph: vertices Z4×Z4, adjacent if difference in
	// {±(1,0), ±(0,1), ±(1,1)}.
	shrik := NewGraph(16)
	for x := 0; x < 4; x++ {
		for y := 0; y < 4; y++ {
			for _, d := range [][2]int{{1, 0}, {0, 1}, {1, 1}} {
				u := id(x, y)
				v := id((x+d[0])%4, (y+d[1])%4)
				if u < v && !shrik.HasEdge(u, v) {
					shrik.AddEdge(u, v)
				} else if v < u && !shrik.HasEdge(v, u) {
					shrik.AddEdge(v, u)
				}
			}
		}
	}
	if rook.NumEdges() != 48 || shrik.NumEdges() != 48 {
		t.Fatalf("construction wrong: %d and %d edges, want 48", rook.NumEdges(), shrik.NumEdges())
	}
	if Isomorphic(rook, shrik) {
		t.Fatal("rook's graph reported isomorphic to Shrikhande graph")
	}
	// Sanity: each is isomorphic to a random relabeling of itself.
	rng := rand.New(rand.NewSource(5))
	if !Isomorphic(rook, rook.Permute(rng.Perm(16))) {
		t.Fatal("rook not isomorphic to its own relabeling")
	}
	if !Isomorphic(shrik, shrik.Permute(rng.Perm(16))) {
		t.Fatal("shrikhande not isomorphic to its own relabeling")
	}
}

// TestIsomorphicQuickPermutations: any graph is isomorphic to every
// permuted copy of itself.
func TestIsomorphicQuickPermutations(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		g := RandomGraph(n, 0.4, rng)
		return Isomorphic(g, g.Permute(rng.Perm(n)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestIsomorphicQuickEdgeToggle: removing one edge breaks isomorphism
// with the original (edge counts differ).
func TestIsomorphicQuickEdgeToggle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(8)
		g := RandomGraph(n, 0.5, rng)
		if g.NumEdges() == 0 {
			return true
		}
		// Copy without one edge.
		h := NewGraph(n)
		removed := false
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if !g.HasEdge(u, v) {
					continue
				}
				if !removed {
					removed = true
					continue
				}
				h.AddEdge(u, v)
			}
		}
		return !Isomorphic(g, h)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestGraphIsoOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	labels := []int{0, 1, 0, 2, 1}
	o := RandomGraphCollection(labels, 8, rng)
	if o.N() != 5 {
		t.Fatalf("N = %d", o.N())
	}
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			want := labels[i] == labels[j]
			if got := o.Same(i, j); got != want {
				t.Fatalf("Same(%d,%d) = %v, want %v", i, j, got, want)
			}
		}
	}
	if o.Graph(0).NumVertices() != 8 {
		t.Fatalf("graph size = %d", o.Graph(0).NumVertices())
	}
}

func TestPermuteValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewGraph(3).Permute([]int{0, 1})
}
