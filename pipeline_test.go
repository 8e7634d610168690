package ecsort_test

// End-to-end pipeline tests through the public API: every algorithm ×
// every oracle kind, with certification as the final acceptance check —
// the way a downstream user would wire the library together.

import (
	"context"
	"math/rand"
	"testing"

	"ecsort"
)

// oracleKind builds an oracle realizing a label vector.
type oracleKind struct {
	name  string
	build func(labels []int, seed int64, rng *rand.Rand) ecsort.Oracle
	maxN  int // some oracles are expensive per test
}

func oracleKinds() []oracleKind {
	return []oracleKind{
		{"label", func(labels []int, _ int64, _ *rand.Rand) ecsort.Oracle {
			return ecsort.NewLabelOracle(labels)
		}, 1 << 30},
		{"handshake", func(labels []int, seed int64, _ *rand.Rand) ecsort.Oracle {
			return ecsort.NewHandshakeOracle(labels, seed)
		}, 200},
		{"fault", func(labels []int, _ int64, _ *rand.Rand) ecsort.Oracle {
			states := make([]uint64, len(labels))
			for i, l := range labels {
				states[i] = uint64(l)*0x9e3779b97f4a7c15 + 1
			}
			return ecsort.NewFaultOracle(states)
		}, 1 << 30},
		{"graphiso", func(labels []int, _ int64, rng *rand.Rand) ecsort.Oracle {
			return ecsort.RandomGraphCollection(labels, 8, rng)
		}, 80},
		{"graphiso-cached", func(labels []int, _ int64, rng *rand.Rand) ecsort.Oracle {
			plain := ecsort.RandomGraphCollection(labels, 8, rng)
			graphs := make([]*ecsort.Graph, plain.N())
			for i := range graphs {
				graphs[i] = plain.Graph(i)
			}
			return ecsort.NewGraphIsoCachedOracle(graphs)
		}, 80},
		{"agents", func(labels []int, seed int64, _ *rand.Rand) ecsort.Oracle {
			return ecsort.NewAgentNetwork(ecsort.KeyAgents(labels, seed))
		}, 200},
	}
}

// algorithms lists the deterministic regimens for an input with k
// classes.
func algorithms(k int) []ecsort.Algorithm {
	return []ecsort.Algorithm{
		ecsort.CR(k), ecsort.CRUnknownK(), ecsort.ER(), ecsort.RoundRobin(), ecsort.Naive(),
	}
}

func TestPipelineMatrix(t *testing.T) {
	for _, ok := range oracleKinds() {
		ok := ok
		t.Run(ok.name, func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(777))
			n, k := 60, 4
			if n > ok.maxN {
				n = ok.maxN
			}
			labels := ecsort.SampleLabels(ecsort.NewUniform(k), n, rng)
			for _, alg := range algorithms(k) {
				oracle := ok.build(labels, 42, rng)
				res, err := ecsort.Sort(context.Background(), oracle, alg, ecsort.Config{})
				if err != nil {
					t.Fatalf("%s: %v", alg.Name(), err)
				}
				if !ecsort.SameClassification(res.Labels(n), labels) {
					t.Fatalf("%s over %s: wrong classification", alg.Name(), ok.name)
				}
				// Acceptance: certify the result against a fresh session.
				if err := ecsort.Certify(oracle, res.Classes, ecsort.Config{}); err != nil {
					t.Fatalf("%s over %s: certificate rejected: %v", alg.Name(), ok.name, err)
				}
			}
		})
	}
}

// TestPipelineConstRound covers the randomized algorithm separately (it
// needs balanced classes).
func TestPipelineConstRound(t *testing.T) {
	rng := rand.New(rand.NewSource(778))
	n := 90
	labels := make([]int, n)
	for i := range labels {
		labels[i] = i % 3
	}
	rng.Shuffle(n, func(i, j int) { labels[i], labels[j] = labels[j], labels[i] })
	for _, ok := range oracleKinds() {
		if n > ok.maxN {
			continue
		}
		oracle := ok.build(labels, 43, rng)
		res, err := ecsort.Sort(context.Background(), oracle, ecsort.ConstRoundER(ecsort.ConstRoundOptions{
			Lambda: 0.2, D: 10, MaxRetries: 6, Seed: 11,
		}), ecsort.Config{})
		if err != nil {
			t.Fatalf("%s: %v", ok.name, err)
		}
		if !ecsort.SameClassification(res.Labels(n), labels) {
			t.Fatalf("%s: wrong classification", ok.name)
		}
	}
}

// TestPipelineIncremental streams elements through the public incremental
// sorter over each oracle kind.
func TestPipelineIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(779))
	n, k := 50, 3
	labels := ecsort.SampleLabels(ecsort.NewUniform(k), n, rng)
	for _, ok := range oracleKinds() {
		if n > ok.maxN {
			continue
		}
		oracle := ok.build(labels, 44, rng)
		inc, err := ecsort.NewIncremental(oracle, ecsort.Config{})
		if err != nil {
			t.Fatalf("%s: %v", ok.name, err)
		}
		for _, e := range rng.Perm(n) {
			if err := inc.Add(e); err != nil {
				t.Fatalf("%s: %v", ok.name, err)
			}
		}
		classes, err := inc.Classes()
		if err != nil {
			t.Fatalf("%s: %v", ok.name, err)
		}
		res := ecsort.Result{Classes: classes}
		if !ecsort.SameClassification(res.Labels(n), labels) {
			t.Fatalf("%s: incremental classification wrong", ok.name)
		}
	}
}

// TestPipelineStatsConsistency: comparisons ≥ rounds is impossible to
// violate for parallel algorithms (each round ≥ 1 comparison), and the
// widest round never exceeds the processor budget.
func TestPipelineStatsConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(780))
	labels := ecsort.SampleLabels(ecsort.NewUniform(5), 128, rng)
	o := ecsort.NewLabelOracle(labels)
	for _, procs := range []int{0, 16, 64} {
		res, err := ecsort.Sort(context.Background(), o, ecsort.ER(), ecsort.Config{Processors: procs})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Comparisons < int64(res.Stats.Rounds) {
			t.Fatalf("procs=%d: more rounds than comparisons: %+v", procs, res.Stats)
		}
		budget := procs
		if budget == 0 {
			budget = 128
		}
		if res.Stats.MaxRoundSize > budget {
			t.Fatalf("procs=%d: widest round %d exceeds budget", procs, res.Stats.MaxRoundSize)
		}
	}
}
