package ecsort

// Equivalence class sorting regimens as first-class, composable
// Algorithm values. Each value carries its name and comparison-model
// mode, sorts through a context (cancellation is checked between
// physical rounds), dispatches by name through a registry, and can be
// planned automatically from workload hints (Auto).

import (
	"context"

	"ecsort/internal/algo"
)

// Algorithm is one sorting regimen as a value: it knows its registry
// name, the Mode its session must be in, and how to run itself on a
// Session. Sort installs ctx on the session so cancellation is checked
// between physical rounds — a cancelled sort returns ctx.Err() promptly
// and the runtime pool drains cleanly. Algorithm values are stateless
// and safe to reuse across sorts and goroutines. The regimen that
// produced a Result is recorded in Result.Algorithm.
type Algorithm = algo.Algorithm

// Sort runs alg on a fresh session over o — the one-call v2 entry
// point:
//
//	res, err := ecsort.Sort(ctx, oracle, ecsort.CR(8), ecsort.Config{})
//
// For typed inputs without a hand-rolled oracle, see Classify.
func Sort(ctx context.Context, o Oracle, alg Algorithm, cfg Config) (Result, error) {
	return algo.Run(ctx, o, alg, cfg.options()...)
}

// CR returns the Theorem 1 regimen: O(k + log log n) rounds in the
// concurrent-read model via two-phase compounding. k must be the class
// count or an upper bound (correct for any k ≥ 1; k only steers the
// round schedule).
func CR(k int) Algorithm { return algo.CR(k) }

// CRUnknownK returns the Theorem 1 regimen with no prior knowledge of
// k, adapting the compounding schedule to the observed class count.
func CRUnknownK() Algorithm { return algo.CRUnknownK() }

// ER returns the Theorem 2 regimen: O(k log n) rounds in the
// exclusive-read model, no knowledge of k required.
func ER() Algorithm { return algo.ER() }

// ConstRoundER returns the Theorem 4 regimen: O(1) rounds in the
// exclusive-read model when every class has at least opt.Lambda·n
// elements.
func ConstRoundER(opt ConstRoundOptions) Algorithm {
	return algo.ConstRoundER(algo.ConstRoundOpts(opt))
}

// ConstRoundERAdaptive returns the Theorem 4 regimen without knowing λ:
// it starts at opt.Lambda (default 0.4) and halves after every failure,
// per the paper's remark, until it succeeds or reports
// ErrAdaptiveExhausted.
func ConstRoundERAdaptive(opt ConstRoundOptions) Algorithm {
	return algo.ConstRoundERAdaptive(algo.ConstRoundOpts(opt))
}

// TwoClassER returns the k = 2 constant-round regimen from the paper's
// conclusion: O(1) ER rounds for inputs promised to have at most two
// classes. If the promise might be false, Certify the result.
func TwoClassER(maxRetries int, seed int64) Algorithm {
	return algo.TwoClassER(maxRetries, seed)
}

// RoundRobin returns the sequential regimen of Jayapaul et al. — the
// Section 4 analysis subject; one comparison per round.
func RoundRobin() Algorithm { return algo.RoundRobin() }

// Naive returns the sequential one-representative-per-class baseline
// (≤ n·k comparisons).
func Naive() Algorithm { return algo.Naive() }

// ModeHint constrains which comparison-model variant Auto may plan.
type ModeHint = algo.ModeHint

// ModeHint values.
const (
	// AnyMode lets the planner use either model variant.
	AnyMode = algo.AnyMode
	// RequireER restricts the plan to exclusive-read regimens.
	RequireER = algo.RequireER
	// RequireCR restricts the plan to concurrent-read regimens.
	RequireCR = algo.RequireCR
)

// Hints describes what a caller knows about a workload: the class count
// K if known (K = 2 unlocks the two-class O(1) regimen), a smallest
// class fraction Lambda (unlocks the Theorem 4 O(1) regimen), a Mode
// constraint, and whether elements arrive Online. The zero value means
// "nothing is known".
type Hints = algo.Hints

// Auto returns the planner as an Algorithm: it picks the cheapest
// applicable regimen for the hinted workload — ordering candidates by
// round complexity, O(1) two-class/const-round before O(k + log log n)
// compounding CR before O(k log n) ER — and delegates to it, recording
// the regimen actually run in Result.Algorithm:
//
//	res, _ := ecsort.Sort(ctx, o, ecsort.Auto(ecsort.Hints{Lambda: 0.2}), cfg)
//	// res.Algorithm == "const-round-er"
func Auto(h Hints) Algorithm { return algo.Auto(h) }

// AlgorithmInfo describes one registry entry: name, comparison-model
// mode, the hints its factory consumes (required ones called out), the
// regimen's round complexity, and a one-line description. The service
// serves the same rows as GET /v1/algorithms.
type AlgorithmInfo = algo.Info

// Algorithms lists every registered regimen, cheapest-round families
// first.
func Algorithms() []AlgorithmInfo { return algo.Infos() }

// AlgorithmByName builds the named regimen from the registry — the
// single dispatch point the CLIs and the classification service share.
// Canonical names are those in Algorithms(); the short CLI aliases
// ("const", "rr", ...) also resolve. Regimens with required hints ("cr"
// needs K, "const-round-er" needs Lambda) fail loudly when the hint is
// missing.
func AlgorithmByName(name string, h Hints) (Algorithm, error) {
	return algo.ByName(name, h)
}
