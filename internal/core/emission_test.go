package core

import (
	"math/rand"
	"testing"

	"ecsort/internal/dist"
	"ecsort/internal/model"
	"ecsort/internal/oracle"
)

// The emission goldens pin what the stats goldens cannot see: the exact
// order in which a sort emits its tests and the exact order of its output
// classes. Arena and plan layouts may change; these hashes, recorded
// from the engine before the arenas were pre-sized, may not.

// pairStream is an Executor that answers each physical round from labels
// and folds every emitted pair, in order, and every round boundary into
// an FNV-1a hash.
type pairStream struct {
	labels []int
	h      uint64
}

func newPairStream(labels []int) *pairStream {
	return &pairStream{labels: labels, h: 14695981039346656037}
}

func (p *pairStream) mix(v uint64) { p.h = (p.h ^ v) * 1099511628211 }

func (p *pairStream) ExecuteRound(pairs []model.Pair) []bool {
	out := make([]bool, len(pairs))
	for i, pair := range pairs {
		out[i] = p.labels[pair.A] == p.labels[pair.B]
		p.mix(uint64(pair.A))
		p.mix(uint64(pair.B))
	}
	p.mix(^uint64(0))
	return out
}

// classOrderHash hashes the classes exactly as returned, members and
// classes in order.
func classOrderHash(classes [][]int) uint64 {
	p := newPairStream(nil)
	for _, c := range classes {
		for _, e := range c {
			p.mix(uint64(e))
		}
		p.mix(^uint64(0))
	}
	return p.h
}

func TestEmissionOrderGolden(t *testing.T) {
	labels := dist.Labels(dist.NewZeta(2), 1<<12, rand.New(rand.NewSource(7)))
	o := oracle.NewLabel(labels)
	for _, tc := range []struct {
		name             string
		mode             model.Mode
		sort             func(*model.Session) (Result, error)
		pairs, classHash uint64
	}{
		{"SortER", model.ER, SortER, 0x6c53bfb74489438a, 0x643a7ee5a8317b75},
		{"SortCRUnknownK", model.CR, SortCRUnknownK, 0x97ab2a1b8204bb64, 0x2b68dcb44a1222f5},
		{"SortCR/k=4", model.CR, func(s *model.Session) (Result, error) { return SortCR(s, 4) }, 0x8ae63ec819c24125, 0x2b68dcb44a1222f5},
	} {
		stream := newPairStream(labels)
		res, err := tc.sort(model.NewSession(o, tc.mode, model.WithExecutor(stream)))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if stream.h != tc.pairs {
			t.Errorf("%s: emitted pair stream hash = %#x, golden %#x", tc.name, stream.h, tc.pairs)
		}
		if h := classOrderHash(res.Classes); h != tc.classHash {
			t.Errorf("%s: class order hash = %#x, golden %#x", tc.name, h, tc.classHash)
		}
	}
}
