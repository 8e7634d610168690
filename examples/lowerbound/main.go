// Lower bounds live: run the same sorting algorithm against (a) a benign
// random input and (b) the paper's Section 3 adversary, sweeping the
// class size f. Both costs scale as Θ(n²/f) — that is exactly Theorem 5's
// point: the adversary certifies that no algorithm can beat that shape,
// because it answers queries online while maintaining a weighted
// equitable coloring and commits to classes as late as possible.
//
//	go run ./examples/lowerbound
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"ecsort"
)

func main() {
	const n = 512
	ctx := context.Background()
	fmt.Printf("sorting n=%d elements with the round-robin algorithm\n\n", n)
	fmt.Printf("%6s %22s %22s %14s\n", "f", "random input (comps)", "vs adversary (comps)", "forced C·f/n²")

	for _, f := range []int{2, 4, 8, 16, 32} {
		// (a) A benign random input with n/f classes of size f.
		labels := make([]int, n)
		for i := range labels {
			labels[i] = i % (n / f)
		}
		rng := rand.New(rand.NewSource(int64(f)))
		rng.Shuffle(n, func(i, j int) { labels[i], labels[j] = labels[j], labels[i] })
		benign, err := ecsort.Sort(ctx, ecsort.NewLabelOracle(labels), ecsort.RoundRobin(), ecsort.Config{})
		if err != nil {
			log.Fatal(err)
		}

		// (b) The Theorem 5 adversary with the same class-size profile.
		adv := ecsort.NewEqualSizeAdversary(n, f)
		forced, err := ecsort.Sort(ctx, adv, ecsort.RoundRobin(), ecsort.Config{Workers: 1})
		if err != nil {
			log.Fatal(err)
		}
		if err := adv.Audit(); err != nil {
			log.Fatalf("adversary inconsistent: %v", err)
		}
		norm := float64(forced.Stats.Comparisons) * float64(f) / float64(n) / float64(n)
		fmt.Printf("%6d %22d %22d %14.3f\n",
			f, benign.Stats.Comparisons, forced.Stats.Comparisons, norm)
	}

	fmt.Println("\nThe last column hovers near a constant: the adversary forces")
	fmt.Println("Θ(n²/f) comparisons (Theorem 5), improving the older Ω(n²/f²) bound.")

	// Theorem 6: how long can the smallest class stay hidden?
	fmt.Printf("\nsmallest-class adversary (n=%d): comparisons before any algorithm\n", n)
	fmt.Println("could correctly name a smallest-class member:")
	for _, l := range []int{4, 16, 64} {
		adv := ecsort.NewSmallestClassAdversary(n, l)
		if _, err := ecsort.Sort(ctx, adv, ecsort.RoundRobin(), ecsort.Config{Workers: 1}); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  ℓ=%3d: %7d comparisons (C·ℓ/n² = %.3f)\n",
			l, adv.FirstSCCMark(),
			float64(adv.FirstSCCMark())*float64(l)/float64(n)/float64(n))
	}
}
