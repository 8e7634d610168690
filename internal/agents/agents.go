// Package agents simulates the distributed reality behind the paper's
// exclusive-read model: n autonomous agents, each holding private state,
// that can only learn about each other by running a pairwise protocol
// over a message channel. Each protocol session runs one goroutine per
// agent side.
//
// The package provides two concrete agents matching the paper's first two
// applications:
//
//   - KeyAgent — the secret-handshake intern: holds a group key and runs
//     a nonce-exchange + HMAC-SHA256 challenge–response; transcripts
//     reveal only same-group/different-group.
//   - StateAgent — the fault-diagnosis machine: holds a worm-state value
//     and compares via salted commitments, revealing only whether the
//     states coincide. (The simulation models the information flow, not a
//     cryptographically binding commitment: small state spaces would
//     admit dictionary attacks in a real deployment.)
//
// A Network plugs into the comparison-model substrate through its Batch
// view: an ER model.Session enforces the exclusive-read rule before any
// handshake runs, then each worker-pool chunk of a round runs as one
// wave of concurrent protocol sessions. Every ER algorithm in
// internal/core thus runs unchanged on genuinely message-passing
// agents, and the service's agent collection kinds use the same view.
package agents

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync"

	"ecsort/internal/model"
	rt "ecsort/internal/runtime"
)

// Message is one protocol message between two agents.
type Message []byte

// Agent is one participant: Handshake runs the agent's side of the
// pairwise protocol and decides whether the peer is equivalent. sessionID
// is distinct per pairing and identical for both sides; implementations
// derive nonces from it so protocol runs are reproducible.
type Agent interface {
	Handshake(sessionID uint64, send chan<- Message, recv <-chan Message) bool
}

// Network owns n agents and executes comparison rounds between them.
type Network struct {
	agents []Agent
	// sessions counts pairwise protocol runs, for reporting.
	sessions int64
	mu       sync.Mutex
	seq      uint64
}

// NewNetwork wraps a set of agents. Same runs one protocol session on
// the caller; Batch is the view a session's rounds run through. Neither
// wrapping a roster nor a Same probe spins up pool workers.
func NewNetwork(agents []Agent) *Network {
	return &Network{agents: agents}
}

// Batch returns a batch-oracle view of the network whose chunks
// dispatch from p (nil: the shared pool, resolved at the first chunk).
// A session over it runs each worker-pool chunk as one wave of real
// protocol sessions. The view checks no read rule: an ER session
// rejects a round that books an agent twice before any handshake runs,
// and a CR chunk may schedule one agent into several concurrent
// sessions, which is safe because handshakes are pure functions of
// (sessionID, private state). The pool binding is per view, so a
// second view never re-routes an earlier session's rounds. A chunk's
// pairs take consecutive session IDs in order, so a session that runs
// each physical round as one chunk (Workers(1)) gets the same IDs on
// every run.
func (nw *Network) Batch(p *rt.Pool) model.BatchOracle {
	return &batchNetwork{nw: nw, pool: p}
}

// batchNetwork pins one pool to a batch-oracle view of the network.
type batchNetwork struct {
	nw   *Network
	pool *rt.Pool
}

// N implements model.Oracle.
func (b *batchNetwork) N() int { return b.nw.N() }

// Same implements model.Oracle via a single protocol session.
func (b *batchNetwork) Same(i, j int) bool { return b.nw.Same(i, j) }

// SameBatch implements model.BatchOracle: one mutex acquisition
// allocates the whole chunk's session-ID block, then the chunk runs as
// one wave of protocol sessions on the pinned pool, verdicts landing in
// out by index. Sides that disagree on a verdict panic: the pairwise
// protocol itself is broken.
//
//ecsort:hotpath
func (b *batchNetwork) SameBatch(pairs []model.Pair, out []bool) {
	nw := b.nw
	nw.mu.Lock()
	base := nw.seq
	nw.seq += uint64(len(pairs))
	nw.sessions += int64(len(pairs))
	nw.mu.Unlock()
	pool := b.pool
	if pool == nil {
		pool = rt.Shared()
	}
	// run is per call, not per view: a parallel round invokes SameBatch
	// concurrently on disjoint chunks.
	run := roundRun{nw: nw, base: base, pairs: pairs, out: out}
	pool.Run(len(pairs), len(pairs), &run)
}

// N returns the number of agents.
func (nw *Network) N() int { return len(nw.agents) }

// Sessions returns how many pairwise protocol sessions have run.
func (nw *Network) Sessions() int64 {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	return nw.sessions
}

// Same implements model.Oracle by running a single protocol session on
// the caller. A session over the network itself calls Same once per
// test; build it over Batch to run each chunk as a wave.
func (nw *Network) Same(i, j int) bool {
	nw.mu.Lock()
	id := nw.seq
	nw.seq++
	nw.sessions++
	nw.mu.Unlock()
	return nw.runSession(id, i, j)
}

// roundRun adapts one wave of protocol sessions to the runtime's chunk
// interface; with one pair per chunk, verdicts land by index.
type roundRun struct {
	nw    *Network
	base  uint64
	pairs []model.Pair
	out   []bool
}

// RunChunk implements runtime.Runner.
func (r *roundRun) RunChunk(lo, hi int) {
	for i := lo; i < hi; i++ {
		r.out[i] = r.nw.runSession(r.base+uint64(i), r.pairs[i].A, r.pairs[i].B)
	}
}

// runSession wires two agents together and runs their handshakes.
func (nw *Network) runSession(sessionID uint64, a, b int) bool {
	aToB := make(chan Message, 4)
	bToA := make(chan Message, 4)
	verdicts := make(chan bool, 2)
	go func() { verdicts <- nw.agents[a].Handshake(sessionID, aToB, bToA) }()
	go func() { verdicts <- nw.agents[b].Handshake(sessionID, bToA, aToB) }()
	va, vb := <-verdicts, <-verdicts
	if va != vb {
		panic(fmt.Sprintf("agents: session %d: sides disagree (%v vs %v)", sessionID, va, vb))
	}
	return va
}

// KeyAgent runs the secret-handshake protocol with a group key.
type KeyAgent struct {
	key []byte
}

// NewKeyAgent creates an agent holding the given group key.
func NewKeyAgent(key []byte) *KeyAgent {
	cp := make([]byte, len(key))
	copy(cp, key)
	return &KeyAgent{key: cp}
}

// GroupKeys derives one 32-byte group key per distinct label from a
// master seed, and returns the agent roster realizing labels.
func GroupKeys(labels []int, masterSeed int64) []Agent {
	var master [32]byte
	binary.BigEndian.PutUint64(master[:8], uint64(masterSeed))
	keys := map[int][]byte{}
	out := make([]Agent, len(labels))
	for i, l := range labels {
		key, ok := keys[l]
		if !ok {
			mac := hmac.New(sha256.New, master[:])
			var buf [8]byte
			binary.BigEndian.PutUint64(buf[:], uint64(l))
			mac.Write(buf[:])
			key = mac.Sum(nil)
			keys[l] = key
		}
		out[i] = NewKeyAgent(key)
	}
	return out
}

// Handshake implements Agent: exchange session-derived nonces, then
// exchange HMACs of the ordered transcript; equal tags ⇔ equal keys.
func (a *KeyAgent) Handshake(sessionID uint64, send chan<- Message, recv <-chan Message) bool {
	nonce := deriveNonce(sessionID, a.key)
	send <- nonce
	peerNonce := <-recv
	lo, hi := nonce, peerNonce
	if string(lo) > string(hi) {
		lo, hi = hi, lo
	}
	mac := hmac.New(sha256.New, a.key)
	mac.Write([]byte("agents-handshake-v1"))
	mac.Write(lo)
	mac.Write(hi)
	tag := mac.Sum(nil)
	send <- tag
	peerTag := <-recv
	return hmac.Equal(tag, peerTag)
}

// StateAgent compares a private state value by exchanging salted digests.
type StateAgent struct {
	state uint64
}

// NewStateAgent creates an agent with the given private state (e.g. a
// worm-infection bitmask).
func NewStateAgent(state uint64) *StateAgent { return &StateAgent{state: state} }

// StateRoster builds agents from explicit states.
func StateRoster(states []uint64) []Agent {
	out := make([]Agent, len(states))
	for i, s := range states {
		out[i] = NewStateAgent(s)
	}
	return out
}

// Handshake implements Agent: both sides hash (sessionID, state) — equal
// states produce equal digests, and the digest hides the state value up
// to dictionary search over the state space.
func (a *StateAgent) Handshake(sessionID uint64, send chan<- Message, recv <-chan Message) bool {
	h := sha256.New()
	var buf [16]byte
	binary.BigEndian.PutUint64(buf[:8], sessionID)
	binary.BigEndian.PutUint64(buf[8:], a.state)
	h.Write(buf[:])
	digest := h.Sum(nil)
	send <- digest
	peer := <-recv
	return hmac.Equal(digest, peer)
}

func deriveNonce(sessionID uint64, key []byte) Message {
	h := sha256.New()
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], sessionID)
	h.Write(buf[:])
	h.Write(key)
	return h.Sum(nil)[:16]
}
