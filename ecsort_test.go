package ecsort

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"ecsort/internal/agents"
	"ecsort/internal/model"
)

func TestPublicConstRound(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	labels := SampleLabels(NewUniform(3), 150, rng)
	o := NewLabelOracle(labels)
	res, err := Sort(context.Background(), o, ConstRoundER(ConstRoundOptions{Lambda: 0.2, D: 8, MaxRetries: 5, Seed: 3}), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !SameClassification(res.Labels(150), o.Labels()) {
		t.Fatal("wrong classification")
	}
}

func TestPublicConstRoundFailure(t *testing.T) {
	labels := make([]int, 100)
	labels[0] = 1 // smallest class has 1 element; λ=0.4 is hopeless
	o := NewLabelOracle(labels)
	_, err := Sort(context.Background(), o, ConstRoundER(ConstRoundOptions{Lambda: 0.4, D: 2, MaxRetries: 1, Seed: 4}), Config{})
	if err != nil && !errors.Is(err, ErrConstRoundFailed) {
		t.Fatalf("unexpected error type: %v", err)
	}
}

// TestApplicationOraclesEndToEnd sorts with each motivating-application
// oracle through the public API.
func TestApplicationOraclesEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ctx := context.Background()

	t.Run("secret handshakes", func(t *testing.T) {
		labels := SampleLabels(NewUniform(4), 40, rng)
		agents := NewHandshakeOracle(labels, 99)
		res, err := Sort(ctx, agents, ER(), Config{})
		if err != nil {
			t.Fatal(err)
		}
		if !SameClassification(res.Labels(40), labels) {
			t.Fatal("handshake sort wrong")
		}
	})

	t.Run("fault diagnosis", func(t *testing.T) {
		machines := RandomInfections(60, 3, 0.4, rng)
		res, err := Sort(ctx, machines, CR(machines.NumStates()), Config{})
		if err != nil {
			t.Fatal(err)
		}
		if !SameClassification(res.Labels(60), machines.TruthLabels()) {
			t.Fatal("fault sort wrong")
		}
	})

	t.Run("graph mining", func(t *testing.T) {
		labels := SampleLabels(NewUniform(3), 24, rng)
		graphs := RandomGraphCollection(labels, 8, rng)
		res, err := Sort(ctx, graphs, CR(3), Config{})
		if err != nil {
			t.Fatal(err)
		}
		if !SameClassification(res.Labels(24), labels) {
			t.Fatal("graph sort wrong")
		}
	})
}

func TestPublicAdversary(t *testing.T) {
	adv := NewEqualSizeAdversary(48, 4)
	res, err := Sort(context.Background(), adv, RoundRobin(), Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Classes {
		if len(c) != 4 {
			t.Fatalf("adversary class size %d, want 4", len(c))
		}
	}
	if res.Stats.Comparisons < int64(48*48/(64*4)) {
		t.Fatalf("comparisons %d below Lemma 3 bound", res.Stats.Comparisons)
	}
	if err := adv.Audit(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigKnobs(t *testing.T) {
	labels := SampleLabels(NewUniform(4), 64, rand.New(rand.NewSource(6)))
	o := NewLabelOracle(labels)
	ctx := context.Background()
	tight, err := Sort(ctx, o, ER(), Config{Processors: 4, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	loose, err := Sort(ctx, o, ER(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if tight.Stats.Rounds <= loose.Stats.Rounds {
		t.Errorf("4-processor run used %d rounds, full run %d — budget had no effect",
			tight.Stats.Rounds, loose.Stats.Rounds)
	}
	if tight.Stats.MaxRoundSize > 4 {
		t.Errorf("MaxRoundSize %d exceeds processor budget", tight.Stats.MaxRoundSize)
	}
}

// TestPublicQuickAllOracles fuzzes the public API across oracle kinds.
func TestPublicQuickAllOracles(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		k := 1 + rng.Intn(5)
		labels := SampleLabels(NewUniform(k), n, rng)
		o := NewLabelOracle(labels)
		res, err := Sort(context.Background(), o, ER(), Config{})
		if err != nil {
			return false
		}
		return SameClassification(res.Labels(n), labels)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPublicTwoClassAndMajority(t *testing.T) {
	// A 90/10 split: two-class constant-round sort, majority, and mode.
	labels := make([]int, 100)
	for i := 0; i < 10; i++ {
		labels[i*7] = 1
	}
	o := NewLabelOracle(labels)

	res, err := Sort(context.Background(), o, TwoClassER(5, 3), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !SameClassification(res.Labels(100), labels) {
		t.Fatal("two-class sort wrong")
	}

	cand, size, isMaj := Majority(o, Config{})
	if !isMaj || size != 90 || labels[cand] != 0 {
		t.Fatalf("majority: cand=%d size=%d maj=%v", cand, size, isMaj)
	}

	mc, ms := LargestClass(o, Config{})
	if ms != 90 || labels[mc] != 0 {
		t.Fatalf("largest class: cand=%d size=%d", mc, ms)
	}
}

func TestDistributedSorts(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	n := 48
	labels := make([]int, n)
	for i := range labels {
		labels[i] = rng.Intn(3)
	}

	t.Run("key agents", func(t *testing.T) {
		nw := NewAgentNetwork(KeyAgents(labels, 7))
		res, err := ER().Sort(context.Background(), NewAgentSession(nw, Config{}))
		if err != nil {
			t.Fatal(err)
		}
		if !SameClassification(res.Labels(n), labels) {
			t.Fatal("wrong classification")
		}
		if nw.Sessions() != res.Stats.Comparisons {
			t.Fatalf("sessions %d != comparisons %d", nw.Sessions(), res.Stats.Comparisons)
		}
	})

	t.Run("state agents", func(t *testing.T) {
		states := make([]uint64, n)
		for i, l := range labels {
			states[i] = uint64(l) << 7
		}
		nw := NewAgentNetwork(StateAgents(states))
		res, err := RoundRobin().Sort(context.Background(), NewAgentSession(nw, Config{}))
		if err != nil {
			t.Fatal(err)
		}
		if !SameClassification(res.Labels(n), labels) {
			t.Fatal("wrong classification")
		}
	})

	t.Run("custom session over network", func(t *testing.T) {
		nw := NewAgentNetwork(KeyAgents([]int{0, 0, 1, 1}, 3))
		s := NewAgentSession(nw, Config{})
		res, err := s.Round([]Pair{{A: 0, B: 1}, {A: 2, B: 3}})
		if err != nil {
			t.Fatal(err)
		}
		if !res[0] || !res[1] {
			t.Fatal("wrong verdicts")
		}
	})
}

// TestAgentSessionEnforcesER: a round that books one agent twice is
// rejected by the session before any handshake runs, and costs nothing.
func TestAgentSessionEnforcesER(t *testing.T) {
	nw := NewAgentNetwork(KeyAgents([]int{0, 0, 0}, 1))
	s := NewAgentSession(nw, Config{})
	if _, err := s.Round([]Pair{{A: 0, B: 1}, {A: 1, B: 2}}); !errors.Is(err, model.ErrERConflict) {
		t.Fatalf("double-booked agent: err = %v, want ErrERConflict", err)
	}
	if n := nw.Sessions(); n != 0 {
		t.Errorf("rejected round ran %d protocol sessions", n)
	}
	if st := s.Stats(); st != (Stats{}) {
		t.Errorf("rejected round charged %+v", st)
	}
}

// TestAgentSessionPerSessionPools: each agent session runs its rounds,
// and the protocol waves inside them, on its own Runtime only, so a
// second session over the same network re-routes nothing.
func TestAgentSessionPerSessionPools(t *testing.T) {
	labels := make([]int, 32)
	for i := range labels {
		labels[i] = i % 2
	}
	nw := NewAgentNetwork(KeyAgents(labels, 11))
	poolA, poolB := NewRuntime(3), NewRuntime(3)
	defer poolA.Close()
	defer poolB.Close()
	sessA := NewAgentSession(nw, Config{Runtime: poolA, Workers: 3})
	sessB := NewAgentSession(nw, Config{Runtime: poolB, Workers: 3})

	round := make([]Pair, 0, 16)
	for i := 0; i < len(labels); i += 2 {
		round = append(round, Pair{A: i, B: i + 1})
	}
	if _, err := sessA.Round(round); err != nil {
		t.Fatal(err)
	}
	afterA := poolA.Stats()
	if afterA.Jobs == 0 {
		t.Error("session A's round did not dispatch on its own pool")
	}
	if st := poolB.Stats(); st.Jobs != 0 || st.Inline != 0 {
		t.Errorf("session A's round leaked onto session B's pool: %+v", st)
	}
	if _, err := sessB.Round(round); err != nil {
		t.Fatal(err)
	}
	if poolB.Stats().Jobs == 0 {
		t.Error("session B's round did not dispatch on its own pool")
	}
	if st := poolA.Stats(); st != afterA {
		t.Errorf("session B's round ran on session A's pool: %+v, then %+v", afterA, st)
	}
}

// TestAgentSessionIDsReproducible: an agent session gives every
// protocol session the same ID, and so the same nonces and transcript,
// on every run, even when Config asks for 4 workers on a 4-wide pool.
func TestAgentSessionIDsReproducible(t *testing.T) {
	labels := make([]int, 256)
	for i := range labels {
		labels[i] = i % 5
	}
	keys := KeyAgents(labels, 3)
	pool := NewRuntime(4)
	defer pool.Close()
	run := func() map[uint64][]int {
		log := &sessionLog{met: map[uint64][]int{}}
		roster := make([]Agent, len(keys))
		for i, k := range keys {
			roster[i] = loggedAgent{id: i, inner: k, log: log}
		}
		s := NewAgentSession(NewAgentNetwork(roster), Config{Runtime: pool, Workers: 4})
		if _, err := ER().Sort(context.Background(), s); err != nil {
			t.Fatal(err)
		}
		for _, ids := range log.met {
			sort.Ints(ids)
		}
		return log.met
	}
	want := run()
	for i := 1; i <= 30; i++ {
		if got := run(); !reflect.DeepEqual(got, want) {
			t.Fatalf("rerun %d paired agents with session IDs differently", i)
		}
	}
}

// sessionLog records which agents took part in each protocol session.
type sessionLog struct {
	mu  sync.Mutex
	met map[uint64][]int
}

// loggedAgent logs its side of every session, then runs the handshake.
type loggedAgent struct {
	id    int
	inner Agent
	log   *sessionLog
}

func (a loggedAgent) Handshake(sessionID uint64, send chan<- agents.Message, recv <-chan agents.Message) bool {
	a.log.mu.Lock()
	a.log.met[sessionID] = append(a.log.met[sessionID], a.id)
	a.log.mu.Unlock()
	return a.inner.Handshake(sessionID, send, recv)
}

func TestCustomSession(t *testing.T) {
	o := NewLabelOracle([]int{0, 0, 1, 1})
	s := NewSession(o, ModeER, Config{})
	res, err := s.Round([]Pair{{A: 0, B: 1}, {A: 2, B: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if !res[0] || !res[1] {
		t.Fatal("wrong answers")
	}
	if st := s.Stats(); st.Rounds != 1 || st.Comparisons != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestRuntimeOption: sorting on an explicit Runtime pool must be
// bit-identical to the default, and the pool must actually execute jobs.
func TestRuntimeOption(t *testing.T) {
	pool := NewRuntime(3)
	defer pool.Close()
	rng := rand.New(rand.NewSource(44))
	labels := SampleLabels(NewUniform(5), 512, rng)
	o := NewLabelOracle(labels)

	ctx := context.Background()
	def, err := Sort(ctx, o, CR(5), Config{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := Sort(ctx, o, CR(5), Config{Workers: 3, Runtime: pool})
	if err != nil {
		t.Fatal(err)
	}
	if def.Stats != pooled.Stats {
		t.Errorf("stats diverge on explicit runtime: %+v vs %+v", def.Stats, pooled.Stats)
	}
	if !SameClassification(def.Labels(512), pooled.Labels(512)) {
		t.Error("explicit runtime changed the partition")
	}
	st := pool.Stats()
	if st.Workers != 3 {
		t.Errorf("RuntimeStats.Workers = %d, want 3", st.Workers)
	}
	if st.Jobs == 0 {
		t.Error("explicit runtime executed no parallel jobs")
	}
	if DefaultRuntime() == nil || DefaultRuntime().Size() < 1 {
		t.Error("DefaultRuntime not usable")
	}
}

// TestNegativeWorkersPanics: the facade must forward a negative width to
// the model's validation instead of silently dropping it.
func TestNegativeWorkersPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Config{Workers: -2} did not panic")
		}
	}()
	NewSession(NewLabelOracle([]int{0, 1}), ModeCR, Config{Workers: -2})
}
