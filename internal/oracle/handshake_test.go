package oracle

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"sync"
	"testing"

	"ecsort/internal/model"
	rt "ecsort/internal/runtime"
)

// agentKey returns agent i's group key.
func agentKey(h *Handshake, i int) []byte { return h.groups[h.group[i]].key }

// referenceTag is one side's tag computed the way the goroutine protocol
// this oracle replaced computed it: a fresh HMAC keyed with the agent's
// group key over label ‖ lo ‖ hi.
func referenceTag(key []byte, lo, hi [8]byte) []byte {
	mac := hmac.New(sha256.New, key)
	mac.Write([]byte("ecsort-secret-handshake-v1"))
	mac.Write(lo[:])
	mac.Write(hi[:])
	return mac.Sum(nil)
}

// randomHandshake enrolls n agents into k groups and draws m random
// pairs of distinct agents, all from one seed.
func randomHandshake(seed int64, n, k, m int) (*Handshake, []int, []model.Pair) {
	rng := rand.New(rand.NewSource(seed))
	labels := make([]int, n)
	for i := range labels {
		labels[i] = rng.Intn(k)
	}
	pairs := make([]model.Pair, m)
	for p := range pairs {
		a, b := rng.Intn(n), rng.Intn(n)
		for a == b {
			b = rng.Intn(n)
		}
		pairs[p] = model.Pair{A: a, B: b}
	}
	return NewHandshake(labels, seed), labels, pairs
}

// TestHandshakeTranscriptPinned pins the protocol transcript: every
// side's tag equals the reference computed from that side's key alone,
// the digest of all tags equals the one the goroutine implementation's
// keys, nonces and per-side HMAC produced (so key derivation and nonces
// are pinned too), and Same, SameBatch and the labels agree on random
// chunks.
func TestHandshakeTranscriptPinned(t *testing.T) {
	digests := map[int64]string{
		11: "1efe826fc09b4c7527759f0636fd9fc0ca3845dcd4b899f2229042905142df12",
		12: "c33e844ca526dc5593ad04ed7f4446bafa862e062f4802803fbedc2a1b1805f4",
	}
	for seed, want := range digests {
		h, labels, pairs := randomHandshake(seed, 257, 6, 1000)
		digest := sha256.New()
		for _, p := range pairs {
			i, j := p.A, p.B
			// Sign with pooled states, as Same does, so recycled
			// states are checked too.
			gi, gj := &h.groups[h.group[i]], &h.groups[h.group[j]]
			a, b := gi.macs.Get().(*handshakeMAC), gj.macs.Get().(*handshakeMAC)
			same := h.handshake(i, j, a, b)
			lo, hi := h.nonce(i, j, 0), h.nonce(i, j, 1)
			if string(lo[:]) > string(hi[:]) {
				lo, hi = hi, lo
			}
			if !hmac.Equal(a.tag[:], referenceTag(agentKey(h, i), lo, hi)) {
				t.Fatalf("seed %d: agent %d's tag against %d differs from the reference", seed, i, j)
			}
			if !hmac.Equal(b.tag[:], referenceTag(agentKey(h, j), lo, hi)) {
				t.Fatalf("seed %d: agent %d's tag against %d differs from the reference", seed, j, i)
			}
			digest.Write(a.tag[:])
			digest.Write(b.tag[:])
			gi.macs.Put(a)
			gj.macs.Put(b)
			if want := labels[i] == labels[j]; same != want || h.Same(i, j) != want {
				t.Fatalf("seed %d: handshake(%d,%d) = %v, Same = %v, want %v", seed, i, j, same, h.Same(i, j), want)
			}
		}
		if got := hex.EncodeToString(digest.Sum(nil)); got != want {
			t.Errorf("seed %d: tag digest %s, want %s", seed, got, want)
		}

		rng := rand.New(rand.NewSource(seed))
		out := make([]bool, len(pairs))
		for lo := 0; lo < len(pairs); {
			hi := min(len(pairs), lo+1+rng.Intn(64))
			h.SameBatch(pairs[lo:hi], out[lo:hi])
			lo = hi
		}
		for k, p := range pairs {
			if want := labels[p.A] == labels[p.B]; out[k] != want || h.Same(p.A, p.B) != want {
				t.Fatalf("seed %d: pair %d (%d,%d): SameBatch %v, Same %v, want %v", seed, k, p.A, p.B, out[k], h.Same(p.A, p.B), want)
			}
		}
	}
}

// TestHandshakeSameBatchConcurrent answers disjoint chunks of one round
// from concurrent goroutines, as a parallel round does; under -race it
// checks that the pooled MAC states are never shared.
func TestHandshakeSameBatchConcurrent(t *testing.T) {
	h, labels, pairs := randomHandshake(21, 512, 8, 2048)
	out := make([]bool, len(pairs))
	const chunks = 8
	size := len(pairs) / chunks
	var wg sync.WaitGroup
	for c := 0; c < chunks; c++ {
		lo, hi := c*size, (c+1)*size
		wg.Add(1)
		go func() {
			defer wg.Done()
			h.SameBatch(pairs[lo:hi], out[lo:hi])
		}()
	}
	wg.Wait()
	for k, p := range pairs {
		if want := labels[p.A] == labels[p.B]; out[k] != want {
			t.Fatalf("pair %d (%d,%d) = %v, want %v", k, p.A, p.B, out[k], want)
		}
	}
}

// TestHandshakeBatchAllocs: one ingest-handshake fold round (248 pairs
// on a 4096-agent, k = 8 roster) allocates nothing once the per-group
// MAC pools are warm.
func TestHandshakeBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	h, _, pairs := randomHandshake(31, 4096, 8, 248)
	out := make([]bool, len(pairs))
	h.SameBatch(pairs, out) // warm the MAC pools
	if allocs := testing.AllocsPerRun(100, func() { h.SameBatch(pairs, out) }); allocs != 0 {
		t.Errorf("SameBatch of %d pairs = %v allocs/op, want 0", len(pairs), allocs)
	}
}

// BenchmarkHandshakeRound is the tracked-baseline benchmark of the
// handshake oracle (see BENCH_baseline.json and the CI bench smoke): one
// 4096-pair CR round on a 4096-agent, k = 8 roster, run through a
// session on a pool pinned to width 2, answered whole-chunk (batch) and
// pair-at-a-time (perpair). Warm-up rounds fill the per-group MAC pools
// before timing, so both report the steady state.
func BenchmarkHandshakeRound(b *testing.B) {
	h, _, pairs := randomHandshake(42, 4096, 8, 4096)
	buf := make([]bool, len(pairs))
	bench := func(b *testing.B, o model.Oracle) {
		b.Helper()
		pool := rt.NewPool(2)
		defer pool.Close()
		s := model.NewSession(o, model.CR, model.Workers(2), model.WithPool(pool), model.Processors(len(pairs)))
		// Warm up over several rounds: each worker fills the MAC pools'
		// slots of the processor it runs on, so one round leaves gaps.
		for w := 0; w < 10; w++ {
			if _, err := s.RoundBuf(pairs, buf); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.RoundBuf(pairs, buf); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("batch", func(b *testing.B) { bench(b, h) })
	// Embedding the interface hides SameBatch from the session.
	b.Run("perpair", func(b *testing.B) { bench(b, struct{ model.Oracle }{h}) })
}
