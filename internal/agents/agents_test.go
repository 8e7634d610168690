package agents

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ecsort/internal/core"
	"ecsort/internal/model"
	rt "ecsort/internal/runtime"
)

func TestKeyAgentsHandshake(t *testing.T) {
	labels := []int{0, 1, 0, 2}
	nw := NewNetwork(GroupKeys(labels, 42))
	for i := range labels {
		for j := range labels {
			if i == j {
				continue
			}
			want := labels[i] == labels[j]
			if got := nw.Same(i, j); got != want {
				t.Fatalf("Same(%d,%d) = %v, want %v", i, j, got, want)
			}
		}
	}
}

func TestStateAgentsHandshake(t *testing.T) {
	states := []uint64{3, 7, 3, 0}
	nw := NewNetwork(StateRoster(states))
	if !nw.Same(0, 2) || nw.Same(0, 1) || nw.Same(1, 3) {
		t.Fatal("state handshakes wrong")
	}
}

// sameBatch answers one chunk through the network's batch view.
func sameBatch(nw *Network, pairs []model.Pair) []bool {
	out := make([]bool, len(pairs))
	nw.Batch(nil).SameBatch(pairs, out)
	return out
}

func TestBatchConcurrentSessions(t *testing.T) {
	labels := []int{0, 0, 1, 1, 2, 2}
	nw := NewNetwork(GroupKeys(labels, 7))
	res := sameBatch(nw, []model.Pair{{A: 0, B: 1}, {A: 2, B: 3}, {A: 4, B: 5}})
	for i, r := range res {
		if !r {
			t.Fatalf("pair %d should match", i)
		}
	}
	res = sameBatch(nw, []model.Pair{{A: 0, B: 2}, {A: 1, B: 4}})
	if res[0] || res[1] {
		t.Fatal("cross-group handshakes matched")
	}
	if nw.Sessions() != 5 {
		t.Fatalf("Sessions = %d, want 5", nw.Sessions())
	}
}

// TestFullSortsOverNetwork runs every ER algorithm on a live agent
// network, through sessions over its batch view.
func TestFullSortsOverNetwork(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 60
	labels := make([]int, n)
	for i := range labels {
		labels[i] = rng.Intn(4)
	}

	t.Run("SortER over key agents", func(t *testing.T) {
		nw := NewNetwork(GroupKeys(labels, 99))
		s := model.NewSession(nw.Batch(nil), model.ER)
		res, err := core.SortER(s)
		if err != nil {
			t.Fatal(err)
		}
		if !core.SameClassification(res.Labels(n), labels) {
			t.Fatal("wrong classification")
		}
		// Every comparison went through a protocol session.
		if nw.Sessions() != res.Stats.Comparisons {
			t.Fatalf("sessions %d != comparisons %d", nw.Sessions(), res.Stats.Comparisons)
		}
	})

	t.Run("RoundRobin over state agents", func(t *testing.T) {
		states := make([]uint64, n)
		for i, l := range labels {
			states[i] = uint64(l) * 0x9e3779b97f4a7c15
		}
		nw := NewNetwork(StateRoster(states))
		s := model.NewSession(nw.Batch(nil), model.ER)
		res, err := core.RoundRobin(s)
		if err != nil {
			t.Fatal(err)
		}
		if !core.SameClassification(res.Labels(n), labels) {
			t.Fatal("wrong classification")
		}
	})

	t.Run("ConstRound over key agents", func(t *testing.T) {
		balanced := make([]int, n)
		for i := range balanced {
			balanced[i] = i % 3
		}
		nw := NewNetwork(GroupKeys(balanced, 5))
		s := model.NewSession(nw.Batch(nil), model.ER)
		res, err := core.SortConstRoundER(s, core.ConstRoundConfig{
			Lambda:     0.2,
			D:          10,
			MaxRetries: 5,
			Rng:        rand.New(rand.NewSource(11)),
		})
		if err != nil {
			t.Fatal(err)
		}
		if !core.SameClassification(res.Labels(n), balanced) {
			t.Fatal("wrong classification")
		}
	})
}

// TestNetworkQuick fuzzes rosters and verifies protocol verdicts always
// match label equality.
func TestNetworkQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		labels := make([]int, n)
		for i := range labels {
			labels[i] = rng.Intn(3)
		}
		nw := NewNetwork(GroupKeys(labels, seed))
		for trial := 0; trial < 15; trial++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i == j {
				continue
			}
			if nw.Same(i, j) != (labels[i] == labels[j]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestSessionIDsDistinct: parallel rounds must hand each pair a distinct
// session id (nonce reuse across sessions would be a protocol smell).
func TestSessionIDsDistinct(t *testing.T) {
	nw := NewNetwork(GroupKeys([]int{0, 0, 0, 0}, 3))
	sameBatch(nw, []model.Pair{{A: 0, B: 1}, {A: 2, B: 3}})
	sameBatch(nw, []model.Pair{{A: 0, B: 2}, {A: 1, B: 3}})
	if nw.seq != 4 {
		t.Fatalf("seq = %d, want 4", nw.seq)
	}
}

func BenchmarkNetworkRound(b *testing.B) {
	labels := make([]int, 256)
	for i := range labels {
		labels[i] = i % 4
	}
	nw := NewNetwork(GroupKeys(labels, 1))
	pairs := make([]model.Pair, 0, 128)
	for i := 0; i < 256; i += 2 {
		pairs = append(pairs, model.Pair{A: i, B: i + 1})
	}
	view := nw.Batch(nil)
	out := make([]bool, len(pairs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		view.SameBatch(pairs, out)
	}
}

// TestBatchOracleView: the batch view answers whole chunks with a block
// of real protocol sessions, matching per-pair handshakes bit for bit
// — including CR chunks that repeat an agent, which an ER session would
// reject.
func TestBatchOracleView(t *testing.T) {
	labels := []int{0, 1, 0, 2, 1, 0}
	nw := NewNetwork(GroupKeys(labels, 21))
	b := nw.Batch(nil)
	pairs := []model.Pair{
		{A: 0, B: 2}, {A: 0, B: 5}, {A: 1, B: 4}, // agent 0 repeats: CR-legal
		{A: 0, B: 3}, {A: 1, B: 2},
	}
	out := make([]bool, len(pairs))
	before := nw.Sessions()
	b.SameBatch(pairs, out)
	if got := nw.Sessions() - before; got != int64(len(pairs)) {
		t.Fatalf("batch chunk ran %d sessions, want %d", got, len(pairs))
	}
	for i, p := range pairs {
		if want := labels[p.A] == labels[p.B]; out[i] != want {
			t.Errorf("pair %d (%d,%d) = %v, want %v", i, p.A, p.B, out[i], want)
		}
	}
}

// TestBatchOracleViewFullSort: a session over the batch view sorts the
// roster with the same accounting as a session over the plain network.
func TestBatchOracleViewFullSort(t *testing.T) {
	labels := make([]int, 64)
	rng := rand.New(rand.NewSource(5))
	for i := range labels {
		labels[i] = rng.Intn(4)
	}
	pool := rt.NewPool(4)
	defer pool.Close()

	nwPlain := NewNetwork(GroupKeys(labels, 9))
	sPlain := model.NewSession(nwPlain, model.CR, model.Workers(4), model.WithPool(pool))
	resPlain, err := core.SortCRUnknownK(sPlain)
	if err != nil {
		t.Fatal(err)
	}

	nwBatch := NewNetwork(GroupKeys(labels, 9))
	sBatch := model.NewSession(nwBatch.Batch(pool), model.CR, model.Workers(4), model.WithPool(pool))
	resBatch, err := core.SortCRUnknownK(sBatch)
	if err != nil {
		t.Fatal(err)
	}

	if !core.SameClassification(resBatch.Labels(len(labels)), resPlain.Labels(len(labels))) {
		t.Fatal("batch view sorted differently")
	}
	if resBatch.Stats != resPlain.Stats {
		t.Errorf("stats diverge: batch %+v, plain %+v", resBatch.Stats, resPlain.Stats)
	}
	if nwBatch.Sessions() != nwPlain.Sessions() {
		t.Errorf("protocol sessions diverge: batch %d, plain %d", nwBatch.Sessions(), nwPlain.Sessions())
	}
}
