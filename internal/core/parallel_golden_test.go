package core

import (
	"fmt"
	"math/rand"
	"testing"

	"ecsort/internal/model"
	"ecsort/internal/oracle"
	rt "ecsort/internal/runtime"
)

// The parallel determinism guarantee of the persistent round runtime:
// results are written by index, so at ANY Workers value the partitions,
// comparisons, physical rounds, and widest round must stay bit-identical
// to Workers(1) — which the golden cases pin to the pre-rewrite engine.

func goldenByName(t *testing.T, name string) goldenCase {
	t.Helper()
	for _, g := range goldenCases {
		if g.name == name {
			return g
		}
	}
	t.Fatalf("no golden case %q", name)
	return goldenCase{}
}

func checkGolden(t *testing.T, label string, g goldenCase, res Result) {
	t.Helper()
	if res.Stats.Comparisons != g.comparisons {
		t.Errorf("%s: comparisons = %d, golden %d", label, res.Stats.Comparisons, g.comparisons)
	}
	if res.Stats.Rounds != g.rounds {
		t.Errorf("%s: rounds = %d, golden %d", label, res.Stats.Rounds, g.rounds)
	}
	if res.Stats.MaxRoundSize != g.maxRoundSize {
		t.Errorf("%s: max round size = %d, golden %d", label, res.Stats.MaxRoundSize, g.maxRoundSize)
	}
	if fp := partitionFingerprint(res.Classes); fp != g.fingerprint {
		t.Errorf("%s: partition fingerprint = %#x, golden %#x", label, fp, g.fingerprint)
	}
}

// hideBatch masks an oracle's batch capability: its method set is
// exactly N/Same, so sessions over it take the per-pair path.
type hideBatch struct{ o model.Oracle }

func (h hideBatch) N() int             { return h.o.N() }
func (h hideBatch) Same(i, j int) bool { return h.o.Same(i, j) }

// TestParallelGoldenBatchOracle pins batch-vs-pairwise equivalence
// against the recorded goldens: oracle.Label answers whole chunks via
// SameBatch, and hiding that capability must not move a single stat,
// round, or partition bit at any worker count. (The goldens themselves
// were recorded on the per-pair engine, so the batch runs here prove
// the dispatch rewrite is invisible.)
func TestParallelGoldenBatchOracle(t *testing.T) {
	pool := rt.NewPool(4)
	defer pool.Close()
	goldenCR := goldenByName(t, "SortCR/n=1000/k=3/seed=11")
	goldenER := goldenByName(t, "SortER/n=1024/k=6/seed=17")
	for _, workers := range []int{1, 4} {
		for _, hidden := range []bool{false, true} {
			label := fmt.Sprintf("workers=%d hidden=%v", workers, hidden)
			var oCR, oER model.Oracle
			oCR = oracle.RandomBalanced(1000, 3, rand.New(rand.NewSource(11)))
			oER = oracle.RandomBalanced(1024, 6, rand.New(rand.NewSource(17)))
			if _, ok := oCR.(model.BatchOracle); !ok {
				t.Fatal("oracle.Label must be batch-capable for this test to bite")
			}
			if hidden {
				oCR, oER = hideBatch{oCR}, hideBatch{oER}
			}
			s := model.NewSession(oCR, model.CR, model.Workers(workers), model.WithPool(pool))
			res, err := SortCR(s, 3)
			if err != nil {
				t.Fatalf("SortCR %s: %v", label, err)
			}
			checkGolden(t, "SortCR "+label, goldenCR, res)

			sER := model.NewSession(oER, model.ER, model.Workers(workers), model.WithPool(pool))
			resER, err := SortER(sER)
			if err != nil {
				t.Fatalf("SortER %s: %v", label, err)
			}
			checkGolden(t, "SortER "+label, goldenER, resER)
		}
	}
}

// TestParallelGoldenDeterminism runs golden cases at widths above 1 on a
// 4-wide pool, where each round's tests and each CR merge level's
// per-group passes run in parallel chunks. The CR cases cover both
// phases of Theorem 1: SortCR with n = 1000, k = 3 and with n = 4096,
// k = 8 each reach a phase-2 level of 16 answers, merged in groups of
// 13 and of 9 answers with a short last group, and SortCRUnknownK
// switches phases on its own.
func TestParallelGoldenDeterminism(t *testing.T) {
	pool := rt.NewPool(4)
	defer pool.Close()
	cases := []struct {
		golden string
		mode   model.Mode
		n, k   int
		seed   int64
		sort   func(*model.Session) (Result, error)
	}{
		{"SortCR/n=1000/k=3/seed=11", model.CR, 1000, 3, 11,
			func(s *model.Session) (Result, error) { return SortCR(s, 3) }},
		{"SortCR/n=4096/k=8/seed=7", model.CR, 4096, 8, 7,
			func(s *model.Session) (Result, error) { return SortCR(s, 8) }},
		{"SortCRUnknownK/n=2048/k=5/seed=13", model.CR, 2048, 5, 13, SortCRUnknownK},
		{"SortER/n=1024/k=6/seed=17", model.ER, 1024, 6, 17, SortER},
	}
	for _, workers := range []int{1, 2, 3, 8} {
		for _, tc := range cases {
			truth := oracle.RandomBalanced(tc.n, tc.k, rand.New(rand.NewSource(tc.seed)))
			s := model.NewSession(truth, tc.mode, model.Workers(workers), model.WithPool(pool))
			res, err := tc.sort(s)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", tc.golden, workers, err)
			}
			checkGolden(t, fmt.Sprintf("%s workers=%d", tc.golden, workers), goldenByName(t, tc.golden), res)
		}
	}
}
