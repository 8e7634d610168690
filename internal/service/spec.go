// Package service exposes the incremental equivalence class sorter as a
// long-running classification service: named collections, each owning a
// core.Incremental session over a pluggable oracle, sharded across
// independent single-writer goroutines so ingestion for different
// collections never contends. A flush folds the batched inserts into the
// answer in at most two CR rounds — each insert against the known
// classes, then the inserts no class matched among themselves — and
// answers are served from copy-on-flush snapshots so reads never block
// writes.
//
// The HTTP layer in this package (Handler) is a thin JSON mapping over
// the Go API (CreateCollection / Ingest / Classes / CollectionStats);
// cmd/ecs-serve wires it to a net/http server.
//
// With Config.DataDir set the service is durable: each shard
// write-ahead-logs accepted operations to internal/wal before applying
// them, checkpoints its collections' flat answers, and Open replays
// snapshot-then-tail so a restart rebuilds every collection
// bit-identically. docs/ARCHITECTURE.md maps the layer stack and the
// shard/WAL ownership model; docs/PERSISTENCE.md specifies the on-disk
// format and recovery protocol.
package service

import (
	"fmt"
	"time"

	"ecsort/internal/adversary"
	"ecsort/internal/agents"
	"ecsort/internal/algo"
	"ecsort/internal/model"
	"ecsort/internal/oracle"
)

// Oracle kinds accepted by OracleSpec.Kind, covering the paper's three
// applications plus the plain reference oracle.
const (
	// KindLabel is the reference oracle: Labels[i] defines element i's
	// class, each test a slice lookup.
	KindLabel = "label"
	// KindHandshake runs an HMAC challenge–response secret handshake per
	// test (oracle.Handshake), both sides on the calling goroutine and a
	// worker-pool chunk per oracle call; group membership from Labels.
	// Goroutine message passing is KindHandshakeAgents.
	KindHandshake = "handshake"
	// KindHandshakeAgents routes every test through a two-goroutine
	// message-passing protocol session on an agents.Network of key agents
	// — the distributed reality of the secret-handshake application.
	KindHandshakeAgents = "handshake-agents"
	// KindFault is generalized fault diagnosis over worm-infection
	// bitmasks (States).
	KindFault = "fault"
	// KindFaultAgents is fault diagnosis over an agents.Network of state
	// agents comparing salted digests.
	KindFaultAgents = "fault-agents"
	// KindGraphIso classifies Graphs by isomorphism with cached canonical
	// certificates.
	KindGraphIso = "graph-iso"
)

// GraphSpec is the wire form of one small simple undirected graph for
// KindGraphIso collections.
type GraphSpec struct {
	// N is the vertex count; vertices are 0..N-1.
	N int `json:"n"`
	// Edges lists undirected edges as [u, v] pairs, no loops, no
	// duplicates.
	Edges [][2]int `json:"edges,omitempty"`
}

// AlgorithmIncremental is the default collection regimen: the online
// incremental sorter, folding each batch in at most two CR rounds — the
// batch against the answer's classes, then the elements no class
// matched among themselves.
const AlgorithmIncremental = "incremental"

// OracleSpec declares the ground-truth oracle behind a collection. Kind
// selects the application; exactly one of Labels / States / Graphs must
// be populated, matching the kind. The universe of insertable elements
// is 0..N-1 where N is the length of that field.
type OracleSpec struct {
	Kind string `json:"kind"`
	// Labels drives KindLabel, KindHandshake, and KindHandshakeAgents.
	Labels []int `json:"labels,omitempty"`
	// States drives KindFault and KindFaultAgents.
	States []uint64 `json:"states,omitempty"`
	// Graphs drives KindGraphIso.
	Graphs []GraphSpec `json:"graphs,omitempty"`
	// Seed feeds key derivation for the handshake kinds and the
	// randomized sorting regimens.
	Seed int64 `json:"seed,omitempty"`

	// Algorithm selects the sorting regimen folding this collection's
	// batches. Empty or "incremental" keeps the default online
	// incremental engine; any registry name (er, const-round-er, auto,
	// ...) re-sorts the ingested sub-universe with that regimen on every
	// flush. "auto" plans from the K/Lambda hints with the online flag
	// set, landing on the incremental engine when the plan is in the CR
	// family.
	Algorithm string `json:"algorithm,omitempty"`
	// K is the expected class count, a workload hint for "cr" and
	// "auto".
	K int `json:"k,omitempty"`
	// Lambda is a guaranteed lower bound on (smallest class size)/n, a
	// workload hint for the const-round regimens and "auto".
	Lambda float64 `json:"lambda,omitempty"`
	// D overrides the Hamiltonian-cycle count of the const-round
	// regimens (0: the theory constant d(λ), which is safe but
	// pessimistic — hundreds of cycles for small λ).
	D int `json:"d,omitempty"`
	// Mode constrains which model variant "auto" may plan: "" (any),
	// "ER", or "CR". ER-bound workloads (agents performing their own
	// tests) set "ER" so the planner stays inside exclusive-read
	// regimens.
	Mode string `json:"mode,omitempty"`

	// Faults, when set, wraps the collection's oracle in adversarial
	// fault injection (adversary.Flaky): outright errors, silently
	// flipped answers, latency, and a stuck mode. A faulted collection
	// is always fronted by the resilience middleware, so folds see
	// timeouts/retries/voting rather than raw injected failures.
	Faults *FaultSpec `json:"faults,omitempty"`
	// Resilience tunes the oracle.Resilient fault-tolerance middleware
	// (per-attempt timeouts, retries with jittered backoff, k-of-n
	// majority voting, circuit breaker). Setting it on a fault-free
	// collection is allowed — voting then guards against nothing, but
	// the breaker still protects against future backends.
	Resilience *ResilienceSpec `json:"resilience,omitempty"`
}

// FaultSpec is the wire form of adversary.FlakyConfig: the
// fault-injection profile of a chaos-tested collection. Durations are
// integer milliseconds so specs stay plain JSON numbers.
type FaultSpec struct {
	// FailRate is the probability in [0,1] that an oracle call returns
	// an injected error instead of an answer.
	FailRate float64 `json:"fail_rate,omitempty"`
	// FlipRate is the probability in [0,1] that an oracle call silently
	// answers wrong — the noisy-oracle model the repair daemon converges
	// against.
	FlipRate float64 `json:"flip_rate,omitempty"`
	// LatencyMs delays every oracle call by this many milliseconds.
	LatencyMs int `json:"latency_ms,omitempty"`
	// StuckAfter, when positive, wedges every oracle call after the
	// first StuckAfter until its timeout fires.
	StuckAfter int64 `json:"stuck_after,omitempty"`
	// Seed makes the fault sequence reproducible.
	Seed int64 `json:"seed,omitempty"`
}

// validate bounds the fault profile; NewFlaky treats violations as
// caller bugs and panics, so the service boundary rejects them first.
func (f *FaultSpec) validate() error {
	if f.FailRate < 0 || f.FailRate > 1 || f.FlipRate < 0 || f.FlipRate > 1 {
		return fmt.Errorf("%w: fault rates out of [0,1]: fail %v, flip %v", ErrBadSpec, f.FailRate, f.FlipRate)
	}
	if f.LatencyMs < 0 || f.StuckAfter < 0 {
		return fmt.Errorf("%w: negative fault latency or stuck-after", ErrBadSpec)
	}
	return nil
}

// config converts the wire form to the adversary's native config.
func (f *FaultSpec) config() adversary.FlakyConfig {
	return adversary.FlakyConfig{
		FailRate:   f.FailRate,
		FlipRate:   f.FlipRate,
		Latency:    time.Duration(f.LatencyMs) * time.Millisecond,
		StuckAfter: f.StuckAfter,
		Seed:       f.Seed,
	}
}

// ResilienceSpec is the wire form of oracle.ResilientConfig. Zero
// fields take the middleware's defaults (1s timeout, 2 retries,
// 2ms–100ms backoff, breaker threshold 5 with 1s cooldown, no voting).
type ResilienceSpec struct {
	// TimeoutMs bounds each oracle attempt, in milliseconds.
	TimeoutMs int `json:"timeout_ms,omitempty"`
	// Retries is how many extra attempts follow a failed one.
	Retries int `json:"retries,omitempty"`
	// BackoffMs is the base of the jittered exponential backoff.
	BackoffMs int `json:"backoff_ms,omitempty"`
	// MaxBackoffMs caps the backoff growth.
	MaxBackoffMs int `json:"max_backoff_ms,omitempty"`
	// Votes enables k-of-n majority voting per answer; values <= 1 ask
	// once. Odd values avoid ties.
	Votes int `json:"votes,omitempty"`
	// BreakerThreshold is how many consecutive exhausted asks trip the
	// circuit breaker into degraded mode.
	BreakerThreshold int `json:"breaker_threshold,omitempty"`
	// BreakerCooldownMs is the open → half-open delay.
	BreakerCooldownMs int `json:"breaker_cooldown_ms,omitempty"`
	// Seed makes the backoff jitter reproducible.
	Seed int64 `json:"seed,omitempty"`
}

// validate bounds the middleware profile. Negative values are rejected
// at the wire boundary — the Go API's negative-means-disable idiom is
// not part of the JSON contract.
func (r *ResilienceSpec) validate() error {
	if r.TimeoutMs < 0 || r.Retries < 0 || r.BackoffMs < 0 || r.MaxBackoffMs < 0 ||
		r.Votes < 0 || r.BreakerThreshold < 0 || r.BreakerCooldownMs < 0 {
		return fmt.Errorf("%w: negative resilience parameter", ErrBadSpec)
	}
	return nil
}

// config converts the wire form to the middleware's native config.
func (r *ResilienceSpec) config() oracle.ResilientConfig {
	return oracle.ResilientConfig{
		Timeout:          time.Duration(r.TimeoutMs) * time.Millisecond,
		Retries:          r.Retries,
		Backoff:          time.Duration(r.BackoffMs) * time.Millisecond,
		MaxBackoff:       time.Duration(r.MaxBackoffMs) * time.Millisecond,
		Votes:            r.Votes,
		BreakerThreshold: r.BreakerThreshold,
		BreakerCooldown:  time.Duration(r.BreakerCooldownMs) * time.Millisecond,
		Seed:             r.Seed,
	}
}

// hints assembles the spec's workload hints for the algorithm registry.
func (sp OracleSpec) hints() (algo.Hints, error) {
	h := algo.Hints{K: sp.K, Lambda: sp.Lambda, D: sp.D, Seed: sp.Seed, Online: true}
	switch sp.Mode {
	case "":
	case "ER":
		h.Mode = algo.RequireER
	case "CR":
		h.Mode = algo.RequireCR
	default:
		return h, fmt.Errorf("%w: mode %q (want \"\", \"ER\", or \"CR\")", ErrBadSpec, sp.Mode)
	}
	return h, nil
}

// algorithm resolves the spec's sorting regimen. It returns (nil, name,
// nil) for the default incremental engine — also when "auto" plans into
// the compounding CR family, which the incremental sorter is the online
// form of — and a batch Algorithm otherwise. Unknown names and missing
// required hints surface as ErrBadSpec.
func (sp OracleSpec) algorithm() (algo.Algorithm, string, error) {
	h, err := sp.hints()
	if err != nil {
		return nil, "", err
	}
	switch sp.Algorithm {
	case "", AlgorithmIncremental:
		return nil, AlgorithmIncremental, nil
	case "auto":
		planned, err := algo.Plan(h)
		if err != nil {
			return nil, "", fmt.Errorf("%w: %v", ErrBadSpec, err)
		}
		if planned.Mode() == model.CR {
			return nil, AlgorithmIncremental, nil
		}
		return planned, planned.Name(), nil
	default:
		a, err := algo.ByName(sp.Algorithm, h)
		if err != nil {
			return nil, "", fmt.Errorf("%w: %v", ErrBadSpec, err)
		}
		return a, a.Name(), nil
	}
}

// N returns the universe size the spec defines.
func (sp OracleSpec) N() int {
	switch sp.Kind {
	case KindFault, KindFaultAgents:
		return len(sp.States)
	case KindGraphIso:
		return len(sp.Graphs)
	default:
		return len(sp.Labels)
	}
}

// Build validates the spec and constructs its oracle. The returned
// oracle is safe for concurrent use, as model.Oracle requires.
func (sp OracleSpec) Build() (model.Oracle, error) {
	if sp.N() == 0 {
		return nil, fmt.Errorf("%w: kind %q defines an empty universe", ErrBadSpec, sp.Kind)
	}
	// Fault and resilience profiles validate with the oracle so a
	// checkpointed spec that no longer passes fails recovery loudly too.
	if sp.Faults != nil {
		if err := sp.Faults.validate(); err != nil {
			return nil, err
		}
	}
	if sp.Resilience != nil {
		if err := sp.Resilience.validate(); err != nil {
			return nil, err
		}
	}
	switch sp.Kind {
	case KindLabel:
		if len(sp.Labels) == 0 {
			return nil, fmt.Errorf("%w: kind %q requires labels", ErrBadSpec, sp.Kind)
		}
		return oracle.NewLabel(sp.Labels), nil
	case KindHandshake:
		if len(sp.Labels) == 0 {
			return nil, fmt.Errorf("%w: kind %q requires labels", ErrBadSpec, sp.Kind)
		}
		return oracle.NewHandshake(sp.Labels, sp.Seed), nil
	case KindHandshakeAgents:
		if len(sp.Labels) == 0 {
			return nil, fmt.Errorf("%w: kind %q requires labels", ErrBadSpec, sp.Kind)
		}
		return agents.NewNetwork(agents.GroupKeys(sp.Labels, sp.Seed)), nil
	case KindFault:
		if len(sp.States) == 0 {
			return nil, fmt.Errorf("%w: kind %q requires states", ErrBadSpec, sp.Kind)
		}
		return oracle.NewFault(sp.States), nil
	case KindFaultAgents:
		if len(sp.States) == 0 {
			return nil, fmt.Errorf("%w: kind %q requires states", ErrBadSpec, sp.Kind)
		}
		return agents.NewNetwork(agents.StateRoster(sp.States)), nil
	case KindGraphIso:
		if len(sp.Graphs) == 0 {
			return nil, fmt.Errorf("%w: kind %q requires graphs", ErrBadSpec, sp.Kind)
		}
		graphs := make([]*oracle.Graph, len(sp.Graphs))
		for i, gs := range sp.Graphs {
			g, err := gs.build()
			if err != nil {
				return nil, fmt.Errorf("%w: graph %d: %v", ErrBadSpec, i, err)
			}
			graphs[i] = g
		}
		return oracle.NewGraphIsoCached(graphs), nil
	default:
		return nil, fmt.Errorf("%w: unknown oracle kind %q", ErrBadSpec, sp.Kind)
	}
}

// build validates and constructs one graph. Validation happens here, at
// the service boundary, because oracle.Graph treats malformed edges as
// caller bugs and panics.
func (gs GraphSpec) build() (*oracle.Graph, error) {
	if gs.N < 0 {
		return nil, fmt.Errorf("negative vertex count %d", gs.N)
	}
	g := oracle.NewGraph(gs.N)
	for _, e := range gs.Edges {
		u, v := e[0], e[1]
		if u < 0 || u >= gs.N || v < 0 || v >= gs.N {
			return nil, fmt.Errorf("edge (%d,%d) out of range [0,%d)", u, v, gs.N)
		}
		if u == v {
			return nil, fmt.Errorf("self-loop at vertex %d", u)
		}
		if g.HasEdge(u, v) {
			return nil, fmt.Errorf("duplicate edge (%d,%d)", u, v)
		}
		g.AddEdge(u, v)
	}
	return g, nil
}
