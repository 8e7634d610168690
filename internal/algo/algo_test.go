package algo

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"ecsort/internal/core"
	"ecsort/internal/model"
	"ecsort/internal/oracle"
)

// balanced builds a label oracle with n elements spread over k classes
// round-robin, so every class has >= floor(n/k) members (lambda-friendly).
func balanced(n, k int, seed int64) (*oracle.Label, []int) {
	labels := make([]int, n)
	for i := range labels {
		labels[i] = i % k
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(n, func(i, j int) { labels[i], labels[j] = labels[j], labels[i] })
	return oracle.NewLabel(labels), labels
}

// TestEveryAlgorithmSortsAndCertifies runs each constructor end to end
// through the Algorithm interface and certifies the partition.
func TestEveryAlgorithmSortsAndCertifies(t *testing.T) {
	const n, k = 120, 3
	for _, a := range []Algorithm{
		CR(k),
		CRUnknownK(),
		ER(),
		ConstRoundER(ConstRoundOpts{Lambda: 0.2, D: 10, MaxRetries: 6, Seed: 5}),
		ConstRoundERAdaptive(ConstRoundOpts{Lambda: 0.3, D: 10, MaxRetries: 6, Seed: 5}),
		RoundRobin(),
		Naive(),
	} {
		t.Run(a.Name(), func(t *testing.T) {
			o, labels := balanced(n, k, 77)
			res, err := Run(context.Background(), o, a)
			if err != nil {
				t.Fatal(err)
			}
			if res.Algorithm != a.Name() {
				t.Errorf("Result.Algorithm = %q, want %q", res.Algorithm, a.Name())
			}
			if !core.SameClassification(res.Labels(n), labels) {
				t.Fatal("wrong classification")
			}
			cert := model.NewSession(o, model.ER)
			if err := core.Certify(cert, res.Classes); err != nil {
				t.Fatalf("certificate rejected: %v", err)
			}
		})
	}
}

func TestTwoClassAlgorithm(t *testing.T) {
	o, labels := balanced(100, 2, 9)
	res, err := Run(context.Background(), o, TwoClassER(5, 3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != "two-class-er" {
		t.Errorf("Result.Algorithm = %q", res.Algorithm)
	}
	if !core.SameClassification(res.Labels(100), labels) {
		t.Fatal("wrong classification")
	}
}

// TestAutoPlannerTable pins the planner's choice for each hint
// combination and certifies every choice's output on a matching input.
func TestAutoPlannerTable(t *testing.T) {
	cases := []struct {
		name string
		h    Hints
		want string
		k    int // classes of the input the chosen regimen must solve
	}{
		{"nothing known", Hints{}, "cr-unknown-k", 4},
		{"k known", Hints{K: 5}, "cr", 5},
		{"k=2 unlocks two-class", Hints{K: 2}, "two-class-er", 2},
		{"lambda unlocks const-round", Hints{Lambda: 0.2}, "const-round-er", 3},
		{"lambda beats known k", Hints{K: 4, Lambda: 0.2}, "const-round-er", 4},
		{"CR required ignores lambda", Hints{Lambda: 0.2, Mode: RequireCR}, "cr-unknown-k", 3},
		{"CR required with k", Hints{K: 3, Mode: RequireCR}, "cr", 3},
		{"ER required, nothing known", Hints{Mode: RequireER}, "er", 4},
		{"ER required with k", Hints{K: 6, Mode: RequireER}, "er", 6},
		{"ER required, k=2", Hints{K: 2, Mode: RequireER}, "two-class-er", 2},
		{"ER required with lambda", Hints{Lambda: 0.25, Mode: RequireER}, "const-round-er", 3},
		{"online pins the compounding family", Hints{Online: true, Lambda: 0.2}, "cr-unknown-k", 3},
		{"online with k", Hints{Online: true, K: 4}, "cr", 4},
		{"online but ER required", Hints{Online: true, Mode: RequireER, Lambda: 0.2}, "er", 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			chosen, err := Plan(tc.h)
			if err != nil {
				t.Fatal(err)
			}
			if chosen.Name() != tc.want {
				t.Fatalf("Plan(%+v) = %q, want %q", tc.h, chosen.Name(), tc.want)
			}
			// Auto must delegate to the same choice and record it.
			a := Auto(tc.h)
			if got := a.Name(); got != "auto("+tc.want+")" {
				t.Errorf("Auto name = %q", got)
			}
			o, _ := balanced(120, tc.k, int64(41+tc.k))
			res, err := Run(context.Background(), o, a)
			if err != nil {
				t.Fatal(err)
			}
			if res.Algorithm != tc.want {
				t.Errorf("Result.Algorithm = %q, want %q", res.Algorithm, tc.want)
			}
			cert := model.NewSession(o, model.ER)
			if err := core.Certify(cert, res.Classes); err != nil {
				t.Fatalf("certificate rejected: %v", err)
			}
		})
	}
}

func TestAutoRejectsBadHints(t *testing.T) {
	for _, h := range []Hints{{K: -1}, {Lambda: -0.1}, {Lambda: 0.5}} {
		if _, err := Plan(h); err == nil {
			t.Errorf("Plan(%+v) accepted invalid hints", h)
		}
		if _, err := Run(context.Background(), oracle.NewLabel([]int{0, 1}), Auto(h)); err == nil {
			t.Errorf("Auto(%+v).Sort accepted invalid hints", h)
		}
	}
}

// TestRegistryRoundTrip: every listed regimen is constructible by name
// (given satisfying hints) and reports the listed mode.
func TestRegistryRoundTrip(t *testing.T) {
	hints := Hints{K: 3, Lambda: 0.2, Seed: 1}
	for _, info := range Infos() {
		a, err := ByName(info.Name, hints)
		if err != nil {
			t.Errorf("ByName(%q): %v", info.Name, err)
			continue
		}
		if mode, ok := ModeOf(info.Mode); ok && a.Mode() != mode {
			t.Errorf("%q: Mode() = %v, listed %q", info.Name, a.Mode(), info.Mode)
		}
	}
	if len(Infos()) != len(Names()) {
		t.Errorf("Infos/Names length mismatch")
	}
}

func TestRegistryAliasesAndErrors(t *testing.T) {
	for alias, want := range map[string]string{
		"rr":             "round-robin",
		"const":          "const-round-er",
		"const-adaptive": "const-round-er-adaptive",
		"two-class":      "two-class-er",
		"cr-unknown":     "cr-unknown-k",
	} {
		a, err := ByName(alias, Hints{Lambda: 0.2})
		if err != nil {
			t.Errorf("alias %q: %v", alias, err)
			continue
		}
		if a.Name() != want {
			t.Errorf("alias %q resolved to %q, want %q", alias, a.Name(), want)
		}
	}
	if _, err := ByName("nope", Hints{}); err == nil {
		t.Error("unknown name accepted")
	}
	if _, err := ByName("cr", Hints{}); err == nil {
		t.Error("cr without K accepted")
	}
	if _, err := ByName("const-round-er", Hints{}); err == nil {
		t.Error("const-round-er without Lambda accepted")
	}
}

// TestRegistryErrorPaths pins the factory error behaviour the registry
// documents: boundary hint values, the auto entry surfacing its planner
// error, and error messages actionable enough to fix the call.
func TestRegistryErrorPaths(t *testing.T) {
	if _, err := ByName("const-round-er", Hints{Lambda: 0.41}); err == nil {
		t.Error("const-round-er accepted Lambda above 0.4")
	}
	if _, err := ByName("const-round-er", Hints{Lambda: 0.4}); err != nil {
		t.Errorf("const-round-er rejected boundary Lambda 0.4: %v", err)
	}
	if _, err := ByName("const-round-er", Hints{Lambda: -0.1}); err == nil {
		t.Error("const-round-er accepted negative Lambda")
	}
	if _, err := ByName("cr", Hints{K: -3}); err == nil {
		t.Error("cr accepted negative K")
	}
	if _, err := ByName("auto", Hints{K: -1}); err == nil {
		t.Error("auto entry accepted hints its planner rejects")
	}
	if _, err := ByName("auto", Hints{Lambda: 0.5}); err == nil {
		t.Error("auto entry accepted an out-of-range Lambda hint")
	}
	if a, err := ByName("auto", Hints{K: 2}); err != nil || a == nil {
		t.Errorf("auto entry with valid hints: %v", err)
	}
	_, err := ByName("nope", Hints{})
	if err == nil || !strings.Contains(err.Error(), "naive") {
		t.Errorf("unknown-name error should list known names, got: %v", err)
	}
	if _, err := ByName("cr", Hints{}); err == nil || !strings.Contains(err.Error(), "K >= 1") {
		t.Errorf("cr error should name the missing hint, got: %v", err)
	}
}

// TestRegistryTableInvariants checks the registry data itself: no name
// or alias collisions, required hints listed among consumed hints, and
// ModeOf round-tripping every listed mode.
func TestRegistryTableInvariants(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range registry {
		for _, name := range append([]string{e.info.Name}, e.aliases...) {
			if seen[name] {
				t.Errorf("registry name/alias %q registered twice", name)
			}
			seen[name] = true
		}
		hints := map[string]bool{}
		for _, h := range e.info.Hints {
			hints[h] = true
		}
		for _, r := range e.info.Required {
			if !hints[r] {
				t.Errorf("%q: required hint %q not listed in Hints", e.info.Name, r)
			}
		}
		if _, ok := ModeOf(e.info.Mode); !ok && e.info.Mode != "any" {
			t.Errorf("%q: unmappable mode %q", e.info.Name, e.info.Mode)
		}
	}
	if _, ok := ModeOf("any"); ok {
		t.Error(`ModeOf("any") should not map to a model constant`)
	}
	if m, ok := ModeOf("ER"); !ok || m != model.ER {
		t.Error(`ModeOf("ER") mismatch`)
	}
	if m, ok := ModeOf("CR"); !ok || m != model.CR {
		t.Error(`ModeOf("CR") mismatch`)
	}
}

// cancellingOracle cancels its context after a fixed number of tests.
type cancellingOracle struct {
	inner  model.Oracle
	after  int64
	count  atomic.Int64
	cancel context.CancelFunc
}

func (c *cancellingOracle) N() int { return c.inner.N() }

func (c *cancellingOracle) Same(i, j int) bool {
	if c.count.Add(1) == c.after {
		c.cancel()
	}
	return c.inner.Same(i, j)
}

// TestSortCancellation: a context cancelled mid-sort stops every
// regimen between rounds with ctx.Err().
func TestSortCancellation(t *testing.T) {
	const n = 2048
	for _, a := range []Algorithm{CR(8), ER(), RoundRobin(), Naive()} {
		t.Run(a.Name(), func(t *testing.T) {
			base, _ := balanced(n, 8, 13)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			o := &cancellingOracle{inner: base, after: 500, cancel: cancel}
			_, err := Run(ctx, o, a)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			// The sort must have stopped promptly: well short of the
			// comparisons a full run would charge (n*k/2 at minimum).
			if got := o.count.Load(); got > 3*n {
				t.Errorf("sort kept comparing after cancel: %d tests", got)
			}
		})
	}
}

// TestSortAlreadyCancelled: a dead context fails before any comparison.
func TestSortAlreadyCancelled(t *testing.T) {
	o, _ := balanced(256, 4, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, a := range []Algorithm{CR(4), ER(), RoundRobin(), Naive()} {
		_, err := Run(ctx, o, a)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", a.Name(), err)
		}
	}
}

// TestSortCancelledOnLastTest cancels the context on the last test of
// every registry regimen's sort, after the session's last check before a
// physical round. Each sort must return context.Canceled and no answer,
// not one built from that round.
func TestSortCancelledOnLastTest(t *testing.T) {
	hints := Hints{K: 3, Lambda: 0.2, Seed: 1}
	for _, info := range Infos() {
		k := 3
		if info.Name == "two-class-er" {
			k = 2 // the regimen's promise
		}
		t.Run(info.Name, func(t *testing.T) {
			a, err := ByName(info.Name, hints)
			if err != nil {
				t.Fatalf("ByName(%q): %v", info.Name, err)
			}
			base, _ := balanced(240, k, 7)
			// A free run counts the sort's tests; at Workers(1) every run
			// asks them in the same order.
			free := &cancellingOracle{inner: base}
			if _, err := Run(context.Background(), free, a, model.Workers(1)); err != nil {
				t.Fatal(err)
			}
			last := free.count.Load()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			o := &cancellingOracle{inner: base, after: last, cancel: cancel}
			res, err := Run(ctx, o, a, model.Workers(1))
			if got := o.count.Load(); got != last {
				t.Fatalf("the sort asked %d tests, the free run %d", got, last)
			}
			if !errors.Is(err, context.Canceled) {
				t.Errorf("cancelled on its last test, returned %d classes and error %v, want context.Canceled", len(res.Classes), err)
			}
		})
	}
}

func TestRunNilAlgorithm(t *testing.T) {
	if _, err := Run(context.Background(), oracle.NewLabel([]int{0, 1}), nil); err == nil {
		t.Fatal("nil algorithm accepted")
	}
}

func ExamplePlan() {
	for _, h := range []Hints{{}, {K: 2}, {Lambda: 0.2}, {Mode: RequireER}} {
		a, _ := Plan(h)
		fmt.Println(a.Name())
	}
	// Output:
	// cr-unknown-k
	// two-class-er
	// const-round-er
	// er
}
