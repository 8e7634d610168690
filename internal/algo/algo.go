// Package algo turns the equivalence class sorting regimens of
// internal/core into first-class values: an Algorithm carries its name,
// the comparison-model variant it needs, and a context-aware Sort over a
// model.Session. On top of the values the package keeps a name→factory
// registry (the single dispatch point for the CLIs and the service) and
// a planner, Auto, that picks the cheapest applicable regimen from
// workload hints — mirroring how the partitioning-sorting literature
// treats algorithm selection as a tunable decision rather than a
// caller-side switch statement.
package algo

import (
	"context"
	"fmt"
	"math/rand"

	"ecsort/internal/core"
	"ecsort/internal/model"
)

// Algorithm is one equivalence class sorting regimen as a value: it
// knows its registry name, the read-concurrency mode its session must
// be in, and how to run itself. Sort installs ctx on the session, so
// cancellation is checked between physical rounds and the sort returns
// ctx.Err() promptly; it checks ctx once more when the regimen returns,
// so a sort whose ctx ended during its last round returns no answer.
// Algorithm values are stateless and safe to reuse across sorts and
// goroutines (randomized regimens re-seed their rng from the configured
// seed on every Sort, so repeated runs are reproducible).
type Algorithm interface {
	// Name is the regimen's registry name, recorded in Result.Algorithm.
	Name() string
	// Mode is the comparison-model variant the session must be in.
	Mode() model.Mode
	// Sort runs the regimen on s, checking ctx between physical rounds
	// and after the last.
	Sort(ctx context.Context, s *model.Session) (core.Result, error)
}

// alg is the common Algorithm implementation: a name, a mode, and a
// closure over the core entry point.
type alg struct {
	name string
	mode model.Mode
	run  func(s *model.Session) (core.Result, error)
}

func (a alg) Name() string     { return a.name }
func (a alg) Mode() model.Mode { return a.mode }

// Sort checks the context again after the regimen returns, because the
// session checks it only before each physical round.
func (a alg) Sort(ctx context.Context, s *model.Session) (core.Result, error) {
	if ctx != nil {
		s.SetContext(ctx)
	}
	res, err := a.run(s)
	if err == nil {
		err = s.Err()
	}
	if err != nil {
		return core.Result{}, err
	}
	res.Algorithm = a.name
	return res, nil
}

// CR is the Theorem 1 regimen: O(k + log log n) rounds in the
// concurrent-read model via two-phase compounding. k must be the class
// count or an upper bound (correct for any k ≥ 1; k only steers the
// round schedule).
func CR(k int) Algorithm {
	return alg{name: "cr", mode: model.CR, run: func(s *model.Session) (core.Result, error) {
		return core.SortCR(s, k)
	}}
}

// CRUnknownK is the Theorem 1 regimen with no prior knowledge of k,
// adapting the compounding schedule to the largest class count observed.
func CRUnknownK() Algorithm {
	return alg{name: "cr-unknown-k", mode: model.CR, run: core.SortCRUnknownK}
}

// ER is the Theorem 2 regimen: O(k log n) rounds in the exclusive-read
// model, no knowledge of k required.
func ER() Algorithm {
	return alg{name: "er", mode: model.ER, run: core.SortER}
}

// ConstRoundOpts configures the randomized constant-round regimens.
type ConstRoundOpts struct {
	// Lambda is the guaranteed lower bound on (smallest class size)/n,
	// in (0, 0.4]. Required for ConstRoundER; the starting guess
	// (default 0.4) for ConstRoundERAdaptive.
	Lambda float64
	// D overrides the number of random Hamiltonian cycles; 0 selects
	// the theory constant d(λ).
	D int
	// MaxRetries redraws the random graph after a failure.
	MaxRetries int
	// Seed drives the random cycles; every Sort call re-seeds, so runs
	// are reproducible.
	Seed int64
}

// ConstRoundER is the Theorem 4 regimen: O(1) rounds in the
// exclusive-read model when every class has at least Lambda·n elements.
func ConstRoundER(opt ConstRoundOpts) Algorithm {
	return alg{name: "const-round-er", mode: model.ER, run: func(s *model.Session) (core.Result, error) {
		return core.SortConstRoundER(s, core.ConstRoundConfig{
			Lambda:     opt.Lambda,
			D:          opt.D,
			MaxRetries: opt.MaxRetries,
			Rng:        rand.New(rand.NewSource(opt.Seed)),
		})
	}}
}

// ConstRoundERAdaptive is the Theorem 4 regimen without knowing λ,
// halving opt.Lambda (default 0.4) after every failure per the paper's
// remark.
func ConstRoundERAdaptive(opt ConstRoundOpts) Algorithm {
	return alg{name: "const-round-er-adaptive", mode: model.ER, run: func(s *model.Session) (core.Result, error) {
		return core.SortConstRoundERAdaptive(s, core.AdaptiveConstRoundConfig{
			StartLambda: opt.Lambda,
			D:           opt.D,
			MaxRetries:  opt.MaxRetries,
			Rng:         rand.New(rand.NewSource(opt.Seed)),
		})
	}}
}

// TwoClassER is the k = 2 constant-round regimen from the paper's
// conclusion: O(1) ER rounds for inputs promised to have at most two
// classes, with no lower bound on the smaller one. If the promise might
// be false, Certify the result.
func TwoClassER(maxRetries int, seed int64) Algorithm {
	return alg{name: "two-class-er", mode: model.ER, run: func(s *model.Session) (core.Result, error) {
		return core.SortTwoClassER(s, maxRetries, rand.New(rand.NewSource(seed)))
	}}
}

// RoundRobin is the sequential regimen of Jayapaul et al. whose
// comparison count Section 4 of the paper bounds distribution by
// distribution; one comparison per round.
func RoundRobin() Algorithm {
	return alg{name: "round-robin", mode: model.ER, run: core.RoundRobin}
}

// Naive is the sequential one-representative-per-class baseline
// (≤ n·k comparisons).
func Naive() Algorithm {
	return alg{name: "naive", mode: model.ER, run: core.Naive}
}

// Run is the one-call entry point: build a session over o in a's mode
// with the given options and sort. It is the substrate the facade's
// Sort and Classify stand on.
func Run(ctx context.Context, o model.Oracle, a Algorithm, opts ...model.Option) (core.Result, error) {
	if a == nil {
		return core.Result{}, fmt.Errorf("algo: nil Algorithm")
	}
	return a.Sort(ctx, model.NewSession(o, a.Mode(), opts...))
}
