// Graph mining: classify a collection of graphs into isomorphism classes.
// Each equivalence test is a genuine graph-isomorphism check (WL color
// refinement plus backtracking) — "nontrivial but computationally
// feasible", as the paper puts it. Graphs are passive data, so one graph
// can take part in many comparisons per round: the concurrent-read model,
// and the CR regimen's O(k + log log n) rounds apply.
//
//	go run ./examples/graphmining
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"ecsort"
)

func main() {
	const collection = 300
	const vertices = 12
	const families = 6
	rng := rand.New(rand.NewSource(271828))

	// Build the corpus: six hidden base graphs, each element a randomly
	// relabeled copy of its family's base graph.
	membership := make([]int, collection)
	for i := range membership {
		membership[i] = rng.Intn(families)
	}
	corpus := ecsort.RandomGraphCollection(membership, vertices, rng)

	fmt.Printf("corpus of %d graphs on %d vertices, %d hidden isomorphism classes\n\n",
		collection, vertices, families)

	res, err := ecsort.Sort(context.Background(), corpus, ecsort.CR(families), ecsort.Config{})
	if err != nil {
		log.Fatal(err)
	}
	if !ecsort.SameClassification(res.Labels(collection), membership) {
		log.Fatal("isomorphism classes mis-identified")
	}

	fmt.Printf("SortCR: %d isomorphism tests in %d parallel rounds\n",
		res.Stats.Comparisons, res.Stats.Rounds)
	fmt.Printf("(all-pairs testing would need %d tests)\n\n", collection*(collection-1)/2)

	for i, group := range res.Canonical() {
		g := corpus.Graph(group[0])
		fmt.Printf("  class %d: %3d graphs, %2d edges each (e.g. graph #%d)\n",
			i, len(group), g.NumEdges(), group[0])
	}

	// Direct use of the isomorphism tester on a hard pair: C6 vs 2×K3
	// share degree sequences but are not isomorphic.
	c6 := ecsort.NewGraph(6)
	for i := 0; i < 6; i++ {
		c6.AddEdge(i, (i+1)%6)
	}
	twoTriangles := ecsort.NewGraph(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}} {
		twoTriangles.AddEdge(e[0], e[1])
	}
	fmt.Printf("\nsanity: Isomorphic(C6, 2×K3) = %v (both 2-regular on 6 vertices)\n",
		ecsort.Isomorphic(c6, twoTriangles))
}
