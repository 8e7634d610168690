package service

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// resilientSpec is a label-oracle spec carrying the resilience
// middleware so UpdateResilience has something to retune.
func resilientSpec() OracleSpec {
	return OracleSpec{
		Kind: KindLabel, Labels: []int{0, 0, 1, 1},
		Resilience: &ResilienceSpec{TimeoutMs: 200, Retries: 1, BackoffMs: 1, MaxBackoffMs: 1},
	}
}

// col reaches into the service for a collection's live handle —
// white-box access for asserting on middleware state.
func col(t *testing.T, svc *Service, key string) *collection {
	t.Helper()
	c, err := svc.shardOf(key).lookup(key)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestUpdateResilienceLive(t *testing.T) {
	svc := New(Config{Shards: 1, Workers: 1})
	defer svc.Close()
	if err := svc.CreateCollection("r", resilientSpec()); err != nil {
		t.Fatal(err)
	}
	// Baseline: one attempt per ask.
	if _, err := svc.Ingest("r", []int{0, 1}, true); err != nil {
		t.Fatal(err)
	}
	base := col(t, svc, "r").res.Stats().Attempts

	// Raise votes to 3: every subsequent ask is re-asked until one side
	// is unbeatable, so attempts grow ~3x per test.
	update := ResilienceSpec{TimeoutMs: 200, Retries: 1, BackoffMs: 1, MaxBackoffMs: 1, Votes: 3}
	if err := svc.UpdateResilience("r", update); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Ingest("r", []int{2, 3}, true); err != nil {
		t.Fatal(err)
	}
	c := col(t, svc, "r")
	if got := c.res.Stats().Attempts - base; got < 3 {
		t.Fatalf("attempts after votes=3 update = %d, want >= 3 (vote mode not applied live)", got)
	}
	if c.spec.Resilience == nil || c.spec.Resilience.Votes != 3 {
		t.Fatalf("collection spec not updated: %+v", c.spec.Resilience)
	}

	// Updates validate like creates: negatives are rejected.
	if err := svc.UpdateResilience("r", ResilienceSpec{Retries: -1}); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("negative update err = %v, want ErrBadSpec", err)
	}
}

func TestUpdateResilienceRejectsPlainCollection(t *testing.T) {
	svc := New(Config{Shards: 1, Workers: 1})
	defer svc.Close()
	if err := svc.CreateCollection("plain", OracleSpec{Kind: KindLabel, Labels: []int{0, 1}}); err != nil {
		t.Fatal(err)
	}
	err := svc.UpdateResilience("plain", ResilienceSpec{Votes: 3})
	if !errors.Is(err, ErrBadSpec) {
		t.Fatalf("retune of a middleware-free collection err = %v, want ErrBadSpec", err)
	}
	if err := svc.UpdateResilience("ghost", ResilienceSpec{}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("retune of a missing collection err = %v, want ErrNotFound", err)
	}
}

func TestUpdateResilienceHTTP(t *testing.T) {
	svc := New(Config{Shards: 1, Workers: 1})
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	client := ts.Client()

	if code := call(t, client, "PUT", ts.URL+"/v1/collections/r", resilientSpec(), nil); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	patch := ResilienceSpec{TimeoutMs: 500, Votes: 5, BreakerThreshold: 9}
	var out struct {
		Key        string         `json:"key"`
		Resilience ResilienceSpec `json:"resilience"`
	}
	if code := call(t, client, "PATCH", ts.URL+"/v1/collections/r/resilience", patch, &out); code != http.StatusOK {
		t.Fatalf("patch: %d", code)
	}
	if out.Key != "r" || out.Resilience.Votes != 5 {
		t.Fatalf("patch response = %+v", out)
	}
	if got := col(t, svc, "r").spec.Resilience.BreakerThreshold; got != 9 {
		t.Fatalf("threshold after PATCH = %d, want 9", got)
	}

	// Error mapping: unknown key 404, invalid profile 400, junk body 400.
	if code := call(t, client, "PATCH", ts.URL+"/v1/collections/ghost/resilience", patch, nil); code != http.StatusNotFound {
		t.Fatalf("patch missing collection: %d, want 404", code)
	}
	if code := call(t, client, "PATCH", ts.URL+"/v1/collections/r/resilience", ResilienceSpec{Votes: -1}, nil); code != http.StatusBadRequest {
		t.Fatalf("patch negative votes: %d, want 400", code)
	}
	if code := call(t, client, "PATCH", ts.URL+"/v1/collections/r/resilience", map[string]any{"nope": 1}, nil); code != http.StatusBadRequest {
		t.Fatalf("patch unknown field: %d, want 400", code)
	}
}

// TestUpdateResilienceDurable proves the PATCH survives both recovery
// paths: WAL replay (update → crashless close → reopen) and checkpoint
// restore (checkpoint → close → reopen).
func TestUpdateResilienceDurable(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Shards: 1, Workers: 1, DataDir: dir, Fsync: "never"}
	svc, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.CreateCollection("r", resilientSpec()); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Ingest("r", []int{0, 1, 2}, true); err != nil {
		t.Fatal(err)
	}
	update := ResilienceSpec{TimeoutMs: 750, Retries: 4, BackoffMs: 1, MaxBackoffMs: 2, Votes: 3, BreakerThreshold: 7}
	if err := svc.UpdateResilience("r", update); err != nil {
		t.Fatal(err)
	}
	svc.Close()

	// WAL replay path: the RecResilience record re-applies the profile.
	svc, err = Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := col(t, svc, "r").spec.Resilience
	if got == nil || *got != update {
		t.Fatalf("profile after WAL replay = %+v, want %+v", got, update)
	}
	// Checkpoint path: the spec in the snapshot carries the profile.
	if err := svc.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	svc.Close()
	svc, err = Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	got = col(t, svc, "r").spec.Resilience
	if got == nil || *got != update {
		t.Fatalf("profile after checkpoint restore = %+v, want %+v", got, update)
	}
}

// TestProbeWriteAdmission pins the service-level probe-write contract:
// while the breaker cools, every write 503s; once the cooldown elapses,
// exactly one write per cooldown window is admitted as a probe (it
// reaches the oracle — attempts grow) while concurrent writes keep
// getting 503 until the probe settles.
func TestProbeWriteAdmission(t *testing.T) {
	svc := New(Config{Shards: 1, Workers: 1})
	defer svc.Close()
	spec := OracleSpec{
		Kind: KindLabel, Labels: []int{0, 0, 1, 1, 2, 2},
		Faults: &FaultSpec{FailRate: 1, Seed: 1}, // permanently dead backend
		Resilience: &ResilienceSpec{
			TimeoutMs: 200, Retries: 1, BackoffMs: 1, MaxBackoffMs: 1,
			BreakerThreshold: 1, BreakerCooldownMs: 150,
		},
	}
	if err := svc.CreateCollection("p", spec); err != nil {
		t.Fatal(err)
	}
	// First folding ingest meets the dead oracle and trips the breaker;
	// the accepted items stay buffered.
	if _, err := svc.Ingest("p", []int{0, 1}, true); err == nil {
		t.Fatal("folding ingest against a dead oracle succeeded")
	}
	c := col(t, svc, "p")
	if ra, bad := c.degraded(); !bad || ra <= 0 {
		t.Fatalf("collection not degraded after trip (ra=%v)", ra)
	}
	// While cooling: writes rejected with DegradedError.
	var de *DegradedError
	if _, err := svc.Ingest("p", []int{2}, true); !errors.As(err, &de) {
		t.Fatalf("write while cooling err = %v, want DegradedError", err)
	}

	// After the cooldown: the first write is the probe — admitted past
	// the gate, batch accepted, and it actually asks the (still dead)
	// oracle. The probe's fold then fails and re-opens the breaker, so
	// the call still surfaces a DegradedError — but one earned by a real
	// oracle attempt, not a fast rejection.
	time.Sleep(200 * time.Millisecond)
	before := c.res.Stats().Attempts
	ingestedBefore := c.ingested.Load()
	svc.Ingest("p", []int{2}, false) // no forceFlush: a probe must fold anyway
	if got := c.res.Stats().Attempts; got <= before {
		t.Fatalf("probe write issued no oracle attempts (%d -> %d)", before, got)
	}
	if got := c.ingested.Load(); got != ingestedBefore+1 {
		t.Fatalf("probe write's batch not accepted (ingested %d -> %d)", ingestedBefore, got)
	}
	// The failed probe re-opened the breaker: the next write 503s fast,
	// without touching the oracle or accepting the batch.
	before = c.res.Stats().Attempts
	ingestedBefore = c.ingested.Load()
	if _, err := svc.Ingest("p", []int{3}, true); !errors.As(err, &de) {
		t.Fatalf("write after failed probe err = %v, want DegradedError", err)
	}
	if got := c.res.Stats().Attempts; got != before {
		t.Fatalf("rejected write touched the oracle (%d -> %d)", before, got)
	}
	if got := c.ingested.Load(); got != ingestedBefore {
		t.Fatalf("rejected write accepted items (ingested %d -> %d)", ingestedBefore, got)
	}
}

// TestDegradedFreshReadLeavesProbeSlot: a fresh read of a degraded
// collection with nothing pending has nothing to fold, so it must not
// claim the half-open breaker's one probe-write slot. The next write is
// the probe and reaches the oracle; had the read taken the slot, that
// write would be refused for another full cooldown without an ask.
func TestDegradedFreshReadLeavesProbeSlot(t *testing.T) {
	svc := New(Config{Shards: 1, Workers: 1})
	defer svc.Close()
	spec := OracleSpec{
		Kind: KindLabel, Labels: []int{0, 0, 1, 1},
		Faults: &FaultSpec{StuckAfter: 1}, // the first call answers, every later one hangs
		Resilience: &ResilienceSpec{
			TimeoutMs: 20, Retries: 1,
			BreakerThreshold: 1, BreakerCooldownMs: 150,
		},
	}
	if err := svc.CreateCollection("f", spec); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Ingest("f", []int{0, 1}, true); err != nil {
		t.Fatal(err)
	}
	// The repair sweep's re-verification hangs, times out and trips the
	// breaker with nothing pending.
	svc.RepairSweep()
	c := col(t, svc, "f")
	if _, bad := c.degraded(); !bad {
		t.Fatal("collection not degraded after the repair sweep")
	}
	if p := c.srt.Pending(); p != 0 {
		t.Fatalf("pending = %d, want 0", p)
	}

	time.Sleep(200 * time.Millisecond) // past the cooldown: half-open
	snap, err := svc.Classes("f", true)
	if err != nil {
		t.Fatalf("fresh read of a degraded collection: %v", err)
	}
	if snap.Size != 2 {
		t.Fatalf("fresh read served %d elements, want 2", snap.Size)
	}

	before := c.res.Stats().Attempts
	ingestedBefore := c.ingested.Load()
	_, err = svc.Ingest("f", []int{2}, true)
	if got := c.res.Stats().Attempts; got <= before {
		t.Fatalf("write after the fresh read made no oracle attempt (%d -> %d; err %v)", before, got, err)
	}
	if got := c.ingested.Load(); got != ingestedBefore+1 {
		t.Fatalf("probe write's batch not accepted (ingested %d -> %d)", ingestedBefore, got)
	}
}
