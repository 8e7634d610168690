package oracle

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"math/rand"
	"sync"

	"ecsort/internal/model"
)

// handshakeLabel domain-separates the handshake transcript MAC.
const handshakeLabel = "ecsort-secret-handshake-v1"

// Handshake simulates the cryptographic secret-handshake application: n
// agents each belong to a hidden group and share that group's secret key.
// An equivalence test is a two-party challenge–response: each agent draws
// a nonce, the nonces are exchanged, and each side computes
// HMAC-SHA256(own group key, label ‖ nonce_low ‖ nonce_high) with only
// its own key; each side then compares its tag with the one its peer
// sent. The tags match exactly when the agents hold the same group key,
// and a tag reveals nothing about the key beyond that equality — the
// zero-knowledge property the ECS analysis needs.
//
// Both sides run on the caller's goroutine: each group's keyed MAC
// states are recycled through a per-group pool, so once the pools are
// warm a test costs four SHA-256 compressions and no allocation. The
// goroutine message-passing version of the protocol is the service's
// "handshake-agents" kind (internal/agents).
//
// The protocol outcome is deterministic for a given pair (same group or
// not), so Handshake is a drop-in, if slower, replacement for Label in
// every algorithm.
type Handshake struct {
	group  []int32          // per agent, index into groups
	groups []handshakeGroup // per group, its key and keyed MAC states
	// nonceSeed differentiates nonces across pairs; answers do not
	// depend on nonce values, so plain deterministic derivation is fine
	// and keeps runs reproducible.
	nonceSeed uint64
}

// handshakeGroup holds one group's secret key and a pool of MAC states
// keyed with it.
type handshakeGroup struct {
	key  []byte
	macs sync.Pool // of *handshakeMAC
}

// handshakeMAC is one side's reusable signing state: an HMAC keyed once
// with its group key (Reset restores the keyed state) plus the message
// and tag buffers of one handshake.
type handshakeMAC struct {
	mac hash.Hash
	msg [len(handshakeLabel) + 16]byte // label ‖ lo ‖ hi
	tag [sha256.Size]byte
}

// NewHandshake enrolls n agents with group memberships given by labels;
// agents with equal labels receive the same group key, derived from a
// master secret seeded by seed.
func NewHandshake(labels []int, seed int64) *Handshake {
	master := make([]byte, 32)
	rng := rand.New(rand.NewSource(seed))
	for i := range master {
		master[i] = byte(rng.Intn(256))
	}
	index := make(map[int]int32)
	var keys [][]byte
	h := &Handshake{group: make([]int32, len(labels)), nonceSeed: uint64(seed) * 0x9e3779b97f4a7c15}
	for i, l := range labels {
		g, ok := index[l]
		if !ok {
			mac := hmac.New(sha256.New, master)
			var buf [8]byte
			binary.BigEndian.PutUint64(buf[:], uint64(l))
			mac.Write(buf[:])
			g = int32(len(keys))
			index[l] = g
			keys = append(keys, mac.Sum(nil))
		}
		h.group[i] = g
	}
	h.groups = make([]handshakeGroup, len(keys))
	for g, key := range keys {
		h.groups[g].key = key
		h.groups[g].macs.New = func() any {
			m := &handshakeMAC{mac: hmac.New(sha256.New, key)}
			copy(m.msg[:], handshakeLabel)
			return m
		}
	}
	return h
}

// N implements model.Oracle.
func (h *Handshake) N() int { return len(h.group) }

// Same implements model.Oracle by running the handshake protocol between
// agents i and j.
func (h *Handshake) Same(i, j int) bool {
	gi, gj := &h.groups[h.group[i]], &h.groups[h.group[j]]
	a, b := gi.macs.Get().(*handshakeMAC), gj.macs.Get().(*handshakeMAC)
	same := h.handshake(i, j, a, b)
	gi.macs.Put(a)
	gj.macs.Put(b)
	return same
}

// SameBatch implements model.BatchOracle: a worker-pool chunk of
// handshakes costs one call.
//
//ecsort:hotpath
func (h *Handshake) SameBatch(pairs []model.Pair, out []bool) {
	for k, p := range pairs {
		out[k] = h.Same(p.A, p.B)
	}
}

// handshake runs one test between agent i, signing with a, and agent j,
// signing with b. On return a.tag and b.tag hold the two sides' tags.
func (h *Handshake) handshake(i, j int, a, b *handshakeMAC) bool {
	// Phase 1: exchange nonces and order them canonically, so both
	// sides MAC the same transcript.
	lo, hi := h.nonce(i, j, 0), h.nonce(i, j, 1)
	if string(lo[:]) > string(hi[:]) {
		lo, hi = hi, lo
	}
	// Phase 2: each side MACs the transcript with its own key and
	// compares its tag with the one its peer sent.
	ta, tb := a.sign(lo, hi), b.sign(lo, hi)
	sameA, sameB := hmac.Equal(ta, tb), hmac.Equal(tb, ta)
	if sameA != sameB {
		// Both sides compare the same two tags; disagreement is
		// impossible unless the protocol is broken.
		panic("oracle: handshake sides disagree")
	}
	return sameA
}

// sign returns HMAC(key, label ‖ lo ‖ hi), written into m.tag.
func (m *handshakeMAC) sign(lo, hi [8]byte) []byte {
	copy(m.msg[len(handshakeLabel):], lo[:])
	copy(m.msg[len(handshakeLabel)+8:], hi[:])
	m.mac.Reset()
	m.mac.Write(m.msg[:])
	return m.mac.Sum(m.tag[:0])
}

// nonce derives a per-(pair, side) nonce deterministically.
func (h *Handshake) nonce(i, j, side int) [8]byte {
	v := h.nonceSeed
	v ^= uint64(i+1) * 0xbf58476d1ce4e5b9
	v ^= uint64(j+1) * 0x94d049bb133111eb
	v ^= uint64(side+1) * 0xd6e8feb86659fd93
	v ^= v >> 31
	v *= 0xff51afd7ed558ccd
	var out [8]byte
	binary.BigEndian.PutUint64(out[:], v)
	return out
}
