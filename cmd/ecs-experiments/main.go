// Command ecs-experiments regenerates the paper's experimental artifacts:
// the Figure 5 series (Section 5), the Theorem 1/2/4 round-complexity
// sweeps, the Theorem 5/6 lower-bound sweeps, and the Theorem 7
// stochastic-dominance audit.
//
// Usage:
//
//	ecs-experiments -exp all -scale 10 -trials 3
//	ecs-experiments -exp fig5-zeta -scale 1 -trials 10   # paper-scale
//	ecs-experiments -exp lb-equal -n 1024
//	ecs-experiments -exp fig1 -n 1048576 -k 8            # one Figure 1 table
//
// -scale divides the paper's input sizes (10,000–200,000; zeta
// 1,000–20,000); -scale 1 -trials 10 reproduces Section 5 exactly, at the
// cost of minutes of runtime.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/signal"
	"path/filepath"

	"ecsort"
	"ecsort/internal/dist"
	"ecsort/internal/harness"
)

func main() {
	c, names := parseFlags(os.Args[1:])
	c.out = os.Stdout
	for _, name := range names {
		fmt.Printf("\n######## experiment: %s ########\n", name)
		if err := c.run(name); err != nil {
			fmt.Fprintln(os.Stderr, "ecs-experiments:", err)
			os.Exit(1)
		}
	}
}

// parseFlags reads the command line into a config and the experiments
// to run, exiting with a usage message on a malformed flag.
func parseFlags(args []string) (config, []string) {
	var c config
	fs := flag.NewFlagSet("ecs-experiments", flag.ExitOnError)
	exp := fs.String("exp", "all", "experiment: all | algo | fig5-uniform | fig5-geometric | fig5-poisson | fig5-zeta | fig1 | rounds-cr | rounds-er | rounds-const | lb-equal | lb-smallest | dominance | zeta-exponent | procs | profile")
	fs.IntVar(&c.scale, "scale", 10, "divide the paper's input sizes by this factor")
	fs.IntVar(&c.trials, "trials", 3, "trials per input size (paper: 10)")
	fs.IntVar(&c.n, "n", 1024, "input size for lower-bound and dominance experiments; with -exp fig1, render Figure 1 for this n alone")
	fs.Int64Var(&c.seed, "seed", 2016, "random seed")
	fs.StringVar(&c.csvDir, "csv", "", "also write raw observations as CSV files into this directory")
	fs.StringVar(&c.algo, "algo", "auto", "algorithm registry name for the algo experiment (ecsort -algos lists them)")
	fs.IntVar(&c.k, "k", 8, "class count for the algo experiment's inputs and its k hint; with -exp fig1, render Figure 1 for this k alone")
	fs.Float64Var(&c.lambda, "lambda", 0, "lambda hint for the algo experiment (const regimens, auto)")
	fs.Parse(args)
	if *exp == "all" {
		return c, []string{
			"fig1",
			"zeta-exponent",
			"fig5-uniform", "fig5-geometric", "fig5-poisson", "fig5-zeta",
			"rounds-cr", "rounds-er", "rounds-const",
			"procs", "profile",
			"lb-equal", "lb-smallest",
			"dominance",
		}
	}
	fs.Visit(func(f *flag.Flag) {
		if *exp == "fig1" && (f.Name == "n" || f.Name == "k") {
			c.fig1One = true
		}
	})
	return c, []string{*exp}
}

// config holds the flag values the experiments read and the writer their
// tables go to.
type config struct {
	scale, trials, n int
	seed             int64
	csvDir           string
	algo             string
	k                int
	lambda           float64
	// fig1One makes fig1 render the one table for (n, k) instead of its
	// three fixed pairs; set when -exp fig1 runs with -n or -k given.
	fig1One bool
	out     io.Writer
}

// writeCSV writes raw observations to name.csv in the -csv directory; it
// does nothing when -csv is unset.
func (c config) writeCSV(name string, write func(io.Writer) error) error {
	if c.csvDir == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(c.csvDir, name+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	return write(f)
}

// rounds writes one round-complexity series to its own CSV file (each
// sweep covers several k or λ) and renders it.
func (c config) rounds(file string, s harness.RoundsSeries, title string) error {
	if err := c.writeCSV(file, func(w io.Writer) error {
		return harness.WriteRoundsCSV(w, s)
	}); err != nil {
		return err
	}
	return harness.RenderRounds(c.out, s, title)
}

// run runs one experiment by name.
func (c config) run(name string) error {
	switch name {
	case "algo":
		// Dispatch any registry regimen over the size ladder — the
		// generic form of the rounds-cr/-er/-const sweeps, wired
		// through the same registry the CLIs and the service use.
		// Ctrl-C cancels the current sort between rounds.
		alg, err := ecsort.AlgorithmByName(c.algo, ecsort.Hints{
			K: c.k, Lambda: c.lambda, Seed: c.seed, MaxRetries: 5,
		})
		if err != nil {
			return err
		}
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stop()
		fmt.Fprintf(c.out, "algorithm sweep: -algo %s (k=%d, lambda=%g)\n", c.algo, c.k, c.lambda)
		fmt.Fprintf(c.out, "%10s  %-24s %14s %8s %14s\n", "n", "algorithm", "comparisons", "rounds", "widest round")
		for _, size := range scaledSizes(c.scale) {
			rng := rand.New(rand.NewSource(c.seed))
			labels := ecsort.SampleLabels(ecsort.NewUniform(c.k), size, rng)
			res, err := ecsort.Sort(ctx, ecsort.NewLabelOracle(labels), alg, ecsort.Config{})
			if err != nil {
				return err
			}
			if !ecsort.SameClassification(res.Labels(size), labels) {
				return fmt.Errorf("n=%d: wrong classification", size)
			}
			fmt.Fprintf(c.out, "%10d  %-24s %14d %8d %14d\n",
				size, res.Algorithm, res.Stats.Comparisons, res.Stats.Rounds, res.Stats.MaxRoundSize)
		}
		return nil
	case "fig5-uniform", "fig5-geometric", "fig5-poisson", "fig5-zeta":
		family := name[len("fig5-"):]
		panel, err := harness.RunFig5Panel(family, c.scale, c.trials, c.seed)
		if err != nil {
			return err
		}
		if err := c.writeCSV(name, func(w io.Writer) error {
			return harness.WriteFig5CSV(w, panel)
		}); err != nil {
			return err
		}
		return harness.RenderFig5(c.out, panel)
	case "zeta-exponent":
		ss := []float64{1.1, 1.2, 1.4, 1.6, 1.8, 2.0, 2.2, 2.5, 3.0}
		sizes := harness.PaperSizes(true, c.scale)
		sweep, err := harness.RunZetaExponentSweep(ss, sizes, c.trials, c.seed)
		if err != nil {
			return err
		}
		if err := c.writeCSV(name, func(w io.Writer) error {
			return harness.WriteZetaExponentCSV(w, sweep)
		}); err != nil {
			return err
		}
		return harness.RenderZetaExponents(c.out, sweep)
	case "fig1":
		pairs := []struct{ n, k int }{{1 << 14, 2}, {1 << 17, 4}, {1 << 20, 8}}
		if c.fig1One {
			if c.n < 1 || c.k < 1 {
				return fmt.Errorf("fig1: n and k must be positive")
			}
			pairs = []struct{ n, k int }{{c.n, c.k}}
		}
		for _, tc := range pairs {
			if err := harness.RenderFigure1(c.out, tc.n, tc.k, harness.Figure1Schedule(tc.n, tc.k)); err != nil {
				return err
			}
		}
		return nil
	case "rounds-cr":
		for _, k := range []int{2, 4, 8, 16} {
			s, err := harness.RunRoundsCR(k, scaledSizes(c.scale), c.seed)
			if err != nil {
				return err
			}
			if err := c.rounds(fmt.Sprintf("%s-k%d", name, k), s,
				fmt.Sprintf("Theorem 1: O(k + log log n) rounds; k=%d, expect a flat column", k)); err != nil {
				return err
			}
		}
		return nil
	case "rounds-er":
		for _, k := range []int{2, 4, 8} {
			s, err := harness.RunRoundsER(k, scaledSizes(c.scale), c.seed)
			if err != nil {
				return err
			}
			if err := c.rounds(fmt.Sprintf("%s-k%d", name, k), s,
				fmt.Sprintf("Theorem 2: O(k log n) rounds; k=%d, expect rounds ∝ log n", k)); err != nil {
				return err
			}
		}
		return nil
	case "rounds-const":
		for _, lambda := range []float64{0.1, 0.2, 0.3} {
			k := int(1 / lambda)
			s, err := harness.RunRoundsConst(lambda, 8, k, scaledSizes(c.scale), c.seed)
			if err != nil {
				return err
			}
			if err := c.rounds(fmt.Sprintf("%s-lambda%.2f", name, lambda), s,
				fmt.Sprintf("Theorem 4: O(1) rounds for ℓ ≥ λn; λ=%.2f, expect a flat column", lambda)); err != nil {
				return err
			}
		}
		return nil
	case "profile":
		for _, algo := range []string{"cr", "er", "const"} {
			prof, err := harness.RunRoundProfile(algo, min(c.n, 4096), 4, c.seed)
			if err != nil {
				return err
			}
			if err := harness.RenderRoundProfile(c.out, prof); err != nil {
				return err
			}
		}
		return nil
	case "procs":
		procs := []int{c.n, c.n / 4, c.n / 16, c.n / 64}
		points, err := harness.RunProcessorSweep(c.n, 8, procs, c.seed)
		if err != nil {
			return err
		}
		return harness.RenderProcs(c.out, c.n, 8, points)
	case "lb-equal":
		fs := divisorsUpTo(c.n, 64)
		s, err := harness.RunAdversaryEqual(c.n, fs)
		if err != nil {
			return err
		}
		if err := c.writeCSV(name, func(w io.Writer) error {
			return harness.WriteLBCSV(w, s)
		}); err != nil {
			return err
		}
		return harness.RenderLB(c.out, s)
	case "lb-smallest":
		var ls []int
		for l := 2; l <= c.n/4; l *= 2 {
			ls = append(ls, l)
		}
		s, err := harness.RunAdversarySmallest(c.n, ls)
		if err != nil {
			return err
		}
		if err := c.writeCSV(name, func(w io.Writer) error {
			return harness.WriteLBCSV(w, s)
		}); err != nil {
			return err
		}
		return harness.RenderLB(c.out, s)
	case "dominance":
		for _, d := range []dist.Distribution{
			dist.NewUniform(10), dist.NewUniform(100),
			dist.NewGeometric(0.5), dist.NewGeometric(0.02),
			dist.NewPoisson(1), dist.NewPoisson(25),
			dist.NewZeta(1.1), dist.NewZeta(2.5),
		} {
			rep, err := harness.RunDominance(d, c.n, c.trials, c.seed)
			if err != nil {
				return err
			}
			if err := harness.RenderDominance(c.out, rep); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("unknown experiment %q", name)
	}
}

// scaledSizes picks a geometric size ladder for the round experiments,
// shrunk by scale.
func scaledSizes(scale int) []int {
	base := []int{1 << 12, 1 << 14, 1 << 16, 1 << 18}
	out := make([]int, 0, len(base))
	for _, b := range base {
		s := b / scale
		if s < 16 {
			s = 16
		}
		out = append(out, s)
	}
	return out
}

// divisorsUpTo lists divisors f of n with 2 ≤ f ≤ cap, for the equal-size
// sweep.
func divisorsUpTo(n, cap int) []int {
	var out []int
	for f := 2; f <= cap && f <= n/2; f++ {
		if n%f == 0 {
			out = append(out, f)
		}
	}
	return out
}
