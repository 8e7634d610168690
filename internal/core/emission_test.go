package core

import (
	"math/rand"
	"testing"

	"ecsort/internal/dist"
	"ecsort/internal/model"
)

// The emission goldens pin what the stats goldens cannot see: the exact
// order in which a sort emits its tests and the exact order of its output
// classes. Arena and plan layouts may change; these hashes may not. The
// n = 2^12 rows were recorded from the engine before the arenas were
// pre-sized, the others before the first merge level got its own pass.

// pairStream is a batch oracle that answers from labels and folds every
// emitted pair, in order, and every round boundary into an FNV-1a hash.
// A Workers(1) session calls SameBatch once per physical round, so each
// call is one round.
type pairStream struct {
	labels []int
	h      uint64
}

func newPairStream(labels []int) *pairStream {
	return &pairStream{labels: labels, h: 14695981039346656037}
}

func (p *pairStream) mix(v uint64) { p.h = (p.h ^ v) * 1099511628211 }

func (p *pairStream) N() int { return len(p.labels) }

// Same answers a sequential Compare without hashing it.
func (p *pairStream) Same(i, j int) bool { return p.labels[i] == p.labels[j] }

func (p *pairStream) SameBatch(pairs []model.Pair, out []bool) {
	for i, pair := range pairs {
		out[i] = p.labels[pair.A] == p.labels[pair.B]
		p.mix(uint64(pair.A))
		p.mix(uint64(pair.B))
	}
	p.mix(^uint64(0))
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
	type sorter struct {
		mode model.Mode
		sort func(*model.Session) (Result, error)
	}
	er := sorter{model.ER, SortER}
	crUnknownK := sorter{model.CR, SortCRUnknownK}
	cr4 := sorter{model.CR, func(s *model.Session) (Result, error) { return SortCR(s, 4) }}
	// n = 1 and 3 and 4097 leave an element with no partner in the first
	// merge; Processors(97) splits the 2048-test first round into 22
	// physical rounds.
	for _, tc := range []struct {
		name             string
		n, procs         int // procs 0 grants one processor per element
		s                sorter
		pairs, classHash uint64
	}{
		{"SortER", 1 << 12, 0, er, 0x6c53bfb74489438a, 0x643a7ee5a8317b75},
		{"SortCRUnknownK", 1 << 12, 0, crUnknownK, 0x97ab2a1b8204bb64, 0x2b68dcb44a1222f5},
		{"SortCR/k=4", 1 << 12, 0, cr4, 0x8ae63ec819c24125, 0x2b68dcb44a1222f5},
		{"SortER/n=1", 1, 0, er, 0xcbf29ce484222325, 0xf7cd76f84b148e60},
		{"SortCRUnknownK/n=1", 1, 0, crUnknownK, 0xcbf29ce484222325, 0xf7cd76f84b148e60},
		{"SortCR/k=4/n=1", 1, 0, cr4, 0xcbf29ce484222325, 0xf7cd76f84b148e60},
		{"SortER/n=3", 3, 0, er, 0x6bc13be718aa9620, 0x66c8e425ce7cfe7c},
		{"SortCRUnknownK/n=3", 3, 0, crUnknownK, 0x88b936ca1caeeaa7, 0x7c144be1767f6bd4},
		{"SortCR/k=4/n=3", 3, 0, cr4, 0x88b936ca1caeeaa7, 0x7c144be1767f6bd4},
		{"SortER/n=4097", 4097, 0, er, 0x3233ee5c62da38cf, 0x524bb58bb6da8e4f},
		{"SortCRUnknownK/n=4097", 4097, 0, crUnknownK, 0x271e107fd9890f5d, 0x3a08cddeb90344eb},
		{"SortCR/k=4/n=4097", 4097, 0, cr4, 0xecca29d8e236eeff, 0x3a08cddeb90344eb},
		{"SortER/n=4097/procs=97", 4097, 97, er, 0x0a69f06c23932ead, 0x524bb58bb6da8e4f},
		{"SortCRUnknownK/n=4097/procs=97", 4097, 97, crUnknownK, 0x93d763718ed4d8a5, 0x3a08cddeb90344eb},
		{"SortCR/k=4/n=4097/procs=97", 4097, 97, cr4, 0xe97f52b9917a5da3, 0x3a08cddeb90344eb},
	} {
		labels := dist.Labels(dist.NewZeta(2), tc.n, rand.New(rand.NewSource(7)))
		stream := newPairStream(labels)
		s := model.NewSession(stream, tc.s.mode, model.Workers(1), model.Processors(tc.procs))
		res, err := tc.s.sort(s)
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
