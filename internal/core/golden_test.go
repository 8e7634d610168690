package core

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"ecsort/internal/model"
	"ecsort/internal/oracle"
)

// The golden tests freeze the merge engine's observable semantics: for
// fixed seeds, every algorithm must charge exactly the same comparisons,
// physical rounds, and widest round, and emit exactly the same partition,
// as the reference implementation did before the flat-storage rewrite
// (the map-keyed engine of PR ≤ 2). Any refactor of the hot path must
// keep these numbers bit-for-bit — layout and allocation discipline may
// change, the model-level accounting may not.

// partitionFingerprint hashes the canonical form of a partition.
func partitionFingerprint(classes [][]int) uint64 {
	r := Result{Classes: classes}
	h := fnv.New64a()
	for _, cls := range r.Canonical() {
		for _, e := range cls {
			fmt.Fprintf(h, "%d,", e)
		}
		fmt.Fprintf(h, ";")
	}
	return h.Sum64()
}

type goldenCase struct {
	name         string
	comparisons  int64
	rounds       int
	maxRoundSize int
	fingerprint  uint64
}

// Captured from the pre-rewrite engine at commit 85ba685, except the
// Incremental row's comparisons and rounds: they count the two-round
// fold, which asks no test between two elements that matched a class.
// The constant-round rows (SortConstRoundER, its adaptive wrapper and
// SortTwoClassER) were captured at commit 554a54e, before the two sorts
// shared one draw-and-sweep loop. Their anchors' order sets the sweep
// order, so these rows pin it too. The failing row has no partition: it
// pins what three failed draws spend.
var goldenCases = []goldenCase{
	{"SortCR/n=4096/k=8/seed=7", 35470, 13, 4096, 0x84a87755d67b3c9b},
	{"SortCR/n=1000/k=3/seed=11", 3569, 8, 729, 0xf4736a3fe523b394},
	{"SortCR/n=100/k=10/seed=12", 909, 11, 100, 0xea5848df44aa14d7},
	{"SortCRUnknownK/n=2048/k=5/seed=13", 11425, 11, 2048, 0x89be98f4310c57ec},
	{"SortER/n=1024/k=6/seed=17", 3915, 49, 512, 0xc3c680dc821ccfef},
	{"Incremental/n=2048/k=8/seed=23/batch=192", 33184, 19, 2048, 0xba0007a7d8bd8735},
	{"SortCR/n=500/k=6/seed=29/procs=97", 3007, 35, 97, 0x7671511128f1e65b},
	{"SortConstRoundER/n=600/k=3/lambda=0.3/D=8/seed=41/first-draw", 4806, 22, 300, 0x8e68dab0d150ffa8},
	{"SortConstRoundER/n=120/k=2/lambda=0.4/D=1/seed=101/retries=8", 1330, 101, 60, 0x0e10f56dc48fff2d},
	{"SortConstRoundERAdaptive/sizes=30,70,100/D=3/seed=24", 2052, 34, 100, 0x995edd10bc741e80},
	{"SortTwoClassER/n=1000/minority=100/seed=51", 50100, 101, 500, 0xee8c0c820998c397},
	{"SortTwoClassER/sizes=80,10,10/seed=33/lumped", 5020, 101, 50, 0xd7dadcb83f2fa041},
	{"SortConstRoundER/sizes=1,99,100/lambda=0.4/D=2/seed=22/failed", 1350, 24, 100, 0xcbf29ce484222325},
}

func TestGoldenStatsAndPartitions(t *testing.T) {
	results := map[string]Result{}
	run := func(name string, res Result, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		results[name] = res
	}

	for _, tc := range []struct {
		n, k int
		seed int64
	}{{4096, 8, 7}, {1000, 3, 11}, {100, 10, 12}} {
		truth := oracle.RandomBalanced(tc.n, tc.k, rand.New(rand.NewSource(tc.seed)))
		s := model.NewSession(truth, model.CR)
		res, err := SortCR(s, tc.k)
		run(fmt.Sprintf("SortCR/n=%d/k=%d/seed=%d", tc.n, tc.k, tc.seed), res, err)
	}
	{
		truth := oracle.RandomBalanced(2048, 5, rand.New(rand.NewSource(13)))
		res, err := SortCRUnknownK(model.NewSession(truth, model.CR))
		run("SortCRUnknownK/n=2048/k=5/seed=13", res, err)
	}
	{
		truth := oracle.RandomBalanced(1024, 6, rand.New(rand.NewSource(17)))
		res, err := SortER(model.NewSession(truth, model.ER))
		run("SortER/n=1024/k=6/seed=17", res, err)
	}
	{
		truth := oracle.RandomBalanced(2048, 8, rand.New(rand.NewSource(23)))
		inc, err := NewIncremental(model.NewSession(truth, model.CR))
		if err != nil {
			t.Fatal(err)
		}
		for e := 0; e < 2048; e++ {
			if err := inc.Add(e); err != nil {
				t.Fatal(err)
			}
			if e%192 == 191 {
				if err := inc.Flush(); err != nil {
					t.Fatal(err)
				}
			}
		}
		classes, err := inc.Classes()
		if err != nil {
			t.Fatal(err)
		}
		run("Incremental/n=2048/k=8/seed=23/batch=192",
			Result{Classes: classes, Stats: inc.Stats()}, nil)
	}
	{
		truth := oracle.RandomBalanced(500, 6, rand.New(rand.NewSource(29)))
		s := model.NewSession(truth, model.CR, model.Processors(97))
		res, err := SortCR(s, 6)
		run("SortCR/n=500/k=6/seed=29/procs=97", res, err)
	}
	{
		// MaxRetries 0: the row exists only if the first draw succeeds.
		truth := oracle.RandomBalanced(600, 3, rand.New(rand.NewSource(41)))
		res, err := SortConstRoundER(model.NewSession(truth, model.ER), ConstRoundConfig{
			Lambda: 0.3, D: 8, Rng: rand.New(rand.NewSource(42)),
		})
		run("SortConstRoundER/n=600/k=3/lambda=0.3/D=8/seed=41/first-draw", res, err)
	}
	{
		// One cycle seeds no anchor for some class on the first draws
		// (with MaxRetries 0 this input fails), so the retries run.
		truth := oracle.RandomBalanced(120, 2, rand.New(rand.NewSource(101)))
		res, err := SortConstRoundER(model.NewSession(truth, model.ER), ConstRoundConfig{
			Lambda: 0.4, D: 1, MaxRetries: 8, Rng: rand.New(rand.NewSource(1)),
		})
		run("SortConstRoundER/n=120/k=2/lambda=0.4/D=1/seed=101/retries=8", res, err)
	}
	{
		// ℓ/n = 0.15: the first guess, 0.4, fails and is halved.
		truth := oracle.RandomSizes([]int{30, 70, 100}, rand.New(rand.NewSource(24)))
		res, err := SortConstRoundERAdaptive(model.NewSession(truth, model.ER), AdaptiveConstRoundConfig{
			StartLambda: 0.4, D: 3, MaxRetries: 1, Rng: rand.New(rand.NewSource(77)),
		})
		run("SortConstRoundERAdaptive/sizes=30,70,100/D=3/seed=24", res, err)
	}
	{
		labels := make([]int, 1000)
		for _, e := range rand.New(rand.NewSource(51)).Perm(1000)[:100] {
			labels[e] = 1
		}
		res, err := SortTwoClassER(model.NewSession(oracle.NewLabel(labels), model.ER), 5, rand.New(rand.NewSource(52)))
		run("SortTwoClassER/n=1000/minority=100/seed=51", res, err)
	}
	{
		// Three classes break the promise: the two minorities come back
		// lumped into one class of 20.
		truth := oracle.RandomSizes([]int{80, 10, 10}, rand.New(rand.NewSource(33)))
		res, err := SortTwoClassER(model.NewSession(truth, model.ER), 5, rand.New(rand.NewSource(34)))
		run("SortTwoClassER/sizes=80,10,10/seed=33/lumped", res, err)
	}
	{
		// The lone element can never be in an anchor of ⌊λn/8⌋ = 10.
		truth := oracle.RandomSizes([]int{1, 99, 100}, rand.New(rand.NewSource(22)))
		s := model.NewSession(truth, model.ER)
		_, err := SortConstRoundER(s, ConstRoundConfig{
			Lambda: 0.4, D: 2, MaxRetries: 2, Rng: rand.New(rand.NewSource(5)),
		})
		if !errors.Is(err, ErrConstRoundFailed) {
			t.Fatalf("failed const-round run: err = %v, want ErrConstRoundFailed", err)
		}
		run("SortConstRoundER/sizes=1,99,100/lambda=0.4/D=2/seed=22/failed", Result{Stats: s.Stats()}, nil)
	}

	for _, g := range goldenCases {
		res, ok := results[g.name]
		if !ok {
			t.Errorf("%s: scenario not executed", g.name)
			continue
		}
		if res.Stats.Comparisons != g.comparisons {
			t.Errorf("%s: comparisons = %d, golden %d", g.name, res.Stats.Comparisons, g.comparisons)
		}
		if res.Stats.Rounds != g.rounds {
			t.Errorf("%s: rounds = %d, golden %d", g.name, res.Stats.Rounds, g.rounds)
		}
		if res.Stats.MaxRoundSize != g.maxRoundSize {
			t.Errorf("%s: max round size = %d, golden %d", g.name, res.Stats.MaxRoundSize, g.maxRoundSize)
		}
		if fp := partitionFingerprint(res.Classes); fp != g.fingerprint {
			t.Errorf("%s: partition fingerprint = %#x, golden %#x", g.name, fp, g.fingerprint)
		}
	}
}
