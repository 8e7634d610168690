// Generalized fault diagnosis: n computers each sit in one of k hidden
// malware states (which worms infect them). Two machines can only probe
// each other mutually — each worm detects its own kind — so a pairwise
// test reveals exactly whether the two infection sets are identical.
// Machines probe each other directly, one probe per machine per round:
// the exclusive-read model.
//
// This generalizes the classic two-state ("good"/"faulty") parallel fault
// diagnosis problem from the first SPAA; with k possible states it is
// equivalence class sorting.
//
//	go run ./examples/faultdiagnosis
package main

import (
	"context"
	"fmt"
	"log"
	"math/bits"
	"math/rand"

	"ecsort"
)

func main() {
	const machines = 800
	const worms = 3 // up to 2³ = 8 malware states
	rng := rand.New(rand.NewSource(1988))
	ctx := context.Background()

	fleet := ecsort.RandomInfections(machines, worms, 0.35, rng)
	fmt.Printf("fleet of %d machines, %d candidate worms, %d distinct malware states\n\n",
		machines, worms, fleet.NumStates())

	// The machines know nothing about k; ER needs no hint.
	res, err := ecsort.Sort(ctx, fleet, ecsort.ER(), ecsort.Config{})
	if err != nil {
		log.Fatal(err)
	}
	if !ecsort.SameClassification(res.Labels(machines), fleet.TruthLabels()) {
		log.Fatal("diagnosis grouped machines with different infections")
	}
	fmt.Printf("SortER: %d probes in %d parallel rounds\n\n", res.Stats.Comparisons, res.Stats.Rounds)

	states := fleet.States()
	fmt.Println("diagnosis (worm sets recovered per group):")
	for _, group := range res.Canonical() {
		state := states[group[0]]
		fmt.Printf("  state %03b (%d worms): %4d machines\n",
			state, bits.OnesCount64(state), len(group))
	}

	// A fleet operator who knows k can use the CR algorithm instead —
	// e.g. if probes are mediated by a monitor that may query one
	// machine's state many times per round.
	res2, err := ecsort.Sort(ctx, fleet, ecsort.CR(fleet.NumStates()), ecsort.Config{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nSortCR with k=%d: %d probes in %d rounds (vs %d rounds for ER)\n",
		fleet.NumStates(), res2.Stats.Comparisons, res2.Stats.Rounds, res.Stats.Rounds)
}
