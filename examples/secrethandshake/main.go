// Secret handshakes: the paper's motivating story. Interns at a political
// convention each belong to one of several parties and will only reveal a
// shared affiliation through a pairwise secret handshake. Here the
// handshake is a real HMAC-SHA256 challenge–response in which each intern
// signs the exchanged nonces with only its own party key, both sides
// simulated on the calling goroutine; a transcript reveals nothing but
// same-party/different-party. (The service's "handshake-agents" kind runs
// the same protocol as goroutine message passing between agents.)
//
// Because the agents perform the handshakes themselves, each agent can be
// in at most one handshake per round — the exclusive-read (ER) model — so
// we classify everyone with the ER regimen (Theorem 2) and, since every
// party here is large, with the constant-round algorithm of Theorem 4.
//
//	go run ./examples/secrethandshake
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"ecsort"
)

func main() {
	const interns = 600
	parties := []string{"Republican", "Democrat", "Green", "Labor", "Libertarian"}
	rng := rand.New(rand.NewSource(1789))
	ctx := context.Background()

	// Assign each intern a party, hidden inside the handshake keys.
	affiliation := make([]int, interns)
	for i := range affiliation {
		affiliation[i] = rng.Intn(len(parties))
	}
	agents := ecsort.NewHandshakeOracle(affiliation, 0xC0FFEE)

	fmt.Printf("%d interns, %d parties, zero-knowledge pairwise handshakes only\n\n",
		interns, len(parties))

	// ER merge-tree algorithm: no prior knowledge needed.
	res, err := ecsort.Sort(ctx, agents, ecsort.ER(), ecsort.Config{})
	if err != nil {
		log.Fatal(err)
	}
	report("SortER (Thm 2)", res, affiliation, parties)

	// The same sort over a live distributed network: every comparison
	// round executes as concurrent two-goroutine protocol sessions. The
	// ER session checks the one-handshake-per-intern-per-round rule
	// before any handshake of a round runs.
	network := ecsort.NewAgentNetwork(ecsort.KeyAgents(affiliation, 0xC0FFEE))
	res, err = ecsort.ER().Sort(ctx, ecsort.NewAgentSession(network, ecsort.Config{}))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("distributed run: %d protocol sessions over the network, %d rounds\n\n",
		network.Sessions(), res.Stats.Rounds)
	if !ecsort.SameClassification(res.Labels(interns), affiliation) {
		log.Fatal("distributed run mis-grouped interns")
	}

	// Every party has ≈ interns/5 members, so λ = 0.1 is a safe floor and
	// Theorem 4 classifies everyone in O(1) rounds.
	res, err = ecsort.Sort(ctx, agents, ecsort.ConstRoundER(ecsort.ConstRoundOptions{
		Lambda: 0.1, D: 12, MaxRetries: 5, Seed: 3,
	}), ecsort.Config{})
	if err != nil {
		log.Fatal(err)
	}
	report("SortConstRoundER (Thm 4)", res, affiliation, parties)
}

func report(name string, res ecsort.Result, affiliation []int, parties []string) {
	if !ecsort.SameClassification(res.Labels(len(affiliation)), affiliation) {
		log.Fatalf("%s: grouped interns across party lines!", name)
	}
	fmt.Printf("%s: %d handshakes in %d parallel rounds\n",
		name, res.Stats.Comparisons, res.Stats.Rounds)
	for _, group := range res.Canonical() {
		// The algorithm knows only the grouping; we peek at the hidden
		// affiliation of the first member to label the group for display.
		fmt.Printf("  %-12s %d interns (e.g. intern #%d)\n",
			parties[affiliation[group[0]]], len(group), group[0])
	}
	fmt.Println()
}
