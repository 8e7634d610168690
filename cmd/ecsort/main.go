// Command ecsort runs one equivalence class sorting algorithm on a
// synthetic input and reports the classes found and the cost in Valiant's
// parallel comparison model.
//
// Usage:
//
//	ecsort -algo cr    -n 100000 -k 25
//	ecsort -algo er    -n 50000 -dist zeta -param 2.0
//	ecsort -algo const -n 20000 -k 3 -lambda 0.2
//	ecsort -algo auto  -n 100000 -k 2
//	ecsort -algo rr    -n 100000 -dist geometric -param 0.1
//	ecsort -algo naive -n 10000 -k 10 -oracle handshake
//	ecsort -algos                      # list the registry
//
// The -algo flag dispatches through the ecsort algorithm registry
// (ecsort.AlgorithmByName); -algos lists every regimen with its mode and
// hint requirements. "auto" plans the cheapest applicable regimen from
// the -k/-lambda hints and reports its choice. The -oracle flag picks
// the comparison mechanism: plain labels (fast), simulated secret
// handshakes (an HMAC challenge–response per test, both sides on the
// calling goroutine; -oracle agents runs them as goroutine message
// passing, as the service's handshake-agents kind does), simulated fault
// diagnosis, or graph isomorphism. Interrupting a run (Ctrl-C) cancels
// the sort between parallel rounds.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"strings"

	"ecsort"
)

func main() {
	var (
		algoName = flag.String("algo", "cr", "algorithm registry name or alias (see -algos)")
		list     = flag.Bool("algos", false, "list the algorithm registry and exit")
		n        = flag.Int("n", 10000, "number of elements")
		k        = flag.Int("k", 10, "number of classes (uniform inputs; also the registry's k hint)")
		distKin  = flag.String("dist", "uniform", "class distribution: uniform | geometric | poisson | zeta")
		param    = flag.Float64("param", 0, "distribution parameter (p, λ, or s); 0 = default")
		lambda   = flag.Float64("lambda", 0, "smallest class fraction hint λ (const regimens, auto)")
		d        = flag.Int("d", 0, "const regimens: Hamiltonian cycles (0 = theory constant)")
		oracleK  = flag.String("oracle", "label", "oracle: label | handshake | fault | graphiso | graphiso-cached | agents")
		seed     = flag.Int64("seed", 1, "random seed")
		verbose  = flag.Bool("v", false, "print every class")
		certify  = flag.Bool("certify", false, "re-verify the answer with a minimal certificate schedule")
	)
	flag.Parse()

	if *list {
		printRegistry()
		return
	}

	alg, err := ecsort.AlgorithmByName(*algoName, ecsort.Hints{
		K: *k, Lambda: *lambda, D: *d, Seed: *seed, MaxRetries: 5,
	})
	if err != nil {
		fatal(err)
	}

	rng := rand.New(rand.NewSource(*seed))
	dist, err := pickDistribution(*distKin, *k, *param)
	if err != nil {
		fatal(err)
	}
	labels := ecsort.SampleLabels(dist, *n, rng)

	oracle, err := pickOracle(*oracleK, labels, *seed, rng)
	if err != nil {
		fatal(err)
	}

	// Ctrl-C cancels between parallel rounds; the sort returns ctx.Err().
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	res, err := ecsort.Sort(ctx, oracle, alg, ecsort.Config{})
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "ecsort: interrupted — sort cancelled between rounds")
			os.Exit(130)
		}
		fatal(err)
	}

	fmt.Printf("algorithm:    %s\n", res.Algorithm)
	fmt.Printf("oracle:       %s\n", *oracleK)
	fmt.Printf("input:        n=%d, %s\n", *n, dist.Name())
	fmt.Printf("classes:      %d\n", res.NumClasses())
	fmt.Printf("comparisons:  %d\n", res.Stats.Comparisons)
	fmt.Printf("rounds:       %d\n", res.Stats.Rounds)
	fmt.Printf("widest round: %d comparisons\n", res.Stats.MaxRoundSize)
	if correct := ecsort.SameClassification(res.Labels(*n), labels); correct {
		fmt.Printf("verified:     classification matches ground truth\n")
	} else {
		fmt.Printf("verified:     MISMATCH against ground truth\n")
		os.Exit(1)
	}
	if *certify {
		if cerr := ecsort.Certify(oracle, res.Classes, ecsort.Config{}); cerr != nil {
			fmt.Printf("certificate:  REJECTED: %v\n", cerr)
			os.Exit(1)
		}
		fmt.Printf("certificate:  accepted (n−k+C(k,2) extra tests)\n")
	}
	if *verbose {
		for i, c := range res.Canonical() {
			fmt.Printf("class %d (%d members): %v\n", i, len(c), c)
		}
	}
}

func printRegistry() {
	fmt.Printf("%-24s %-4s %-22s %s\n", "NAME", "MODE", "ROUNDS", "HINTS (required*)")
	for _, info := range ecsort.Algorithms() {
		hints := make([]string, 0, len(info.Hints))
		req := map[string]bool{}
		for _, r := range info.Required {
			req[r] = true
		}
		for _, h := range info.Hints {
			if req[h] {
				h += "*"
			}
			hints = append(hints, h)
		}
		fmt.Printf("%-24s %-4s %-22s %s\n", info.Name, info.Mode, info.Rounds, strings.Join(hints, ","))
		fmt.Printf("%-24s   %s\n", "", info.Description)
	}
}

func pickDistribution(kind string, k int, param float64) (ecsort.Distribution, error) {
	switch kind {
	case "uniform":
		return ecsort.NewUniform(k), nil
	case "geometric":
		if param == 0 {
			param = 0.5
		}
		return ecsort.NewGeometric(param), nil
	case "poisson":
		if param == 0 {
			param = 5
		}
		return ecsort.NewPoisson(param), nil
	case "zeta":
		if param == 0 {
			param = 2
		}
		return ecsort.NewZeta(param), nil
	default:
		return nil, fmt.Errorf("unknown distribution %q", kind)
	}
}

func pickOracle(kind string, labels []int, seed int64, rng *rand.Rand) (ecsort.Oracle, error) {
	switch kind {
	case "label":
		return ecsort.NewLabelOracle(labels), nil
	case "handshake":
		return ecsort.NewHandshakeOracle(labels, seed), nil
	case "fault":
		// Realize each class label as a distinct worm-state bitmask.
		states := make([]uint64, len(labels))
		for i, l := range labels {
			states[i] = uint64(l) * 0x9e3779b97f4a7c15 // distinct per class
		}
		return ecsort.NewFaultOracle(states), nil
	case "graphiso":
		if len(labels) > 2000 {
			return nil, fmt.Errorf("graphiso oracle capped at n=2000 (each test is an isomorphism search)")
		}
		return ecsort.RandomGraphCollection(labels, 10, rng), nil
	case "graphiso-cached":
		if len(labels) > 20000 {
			return nil, fmt.Errorf("graphiso-cached oracle capped at n=20000")
		}
		plain := ecsort.RandomGraphCollection(labels, 10, rng)
		graphs := make([]*ecsort.Graph, plain.N())
		for i := range graphs {
			graphs[i] = plain.Graph(i)
		}
		return ecsort.NewGraphIsoCachedOracle(graphs), nil
	case "agents":
		// A live distributed network: every comparison is a real
		// two-goroutine protocol session.
		return ecsort.NewAgentNetwork(ecsort.KeyAgents(labels, seed)), nil
	default:
		return nil, fmt.Errorf("unknown oracle %q", kind)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ecsort:", err)
	os.Exit(1)
}
