// Command ecs-benchcmp compares `go test -bench` output against the
// repo's tracked baseline (BENCH_baseline.json) and emits a markdown
// table, so every CI run shows the perf trajectory of the flush/merge
// hot path as a build artifact.
//
// Usage:
//
//	go test -run '^$' -bench ... -benchmem ./... | tee bench.txt
//	go run ./cmd/ecs-benchcmp -baseline BENCH_baseline.json bench.txt [more.txt...]
//	go run ./cmd/ecs-benchcmp -write -baseline BENCH_baseline.json bench.txt [more.txt...]
//
// By default the tool is informational and always exits 0: one-shot CI
// bench runs are too noisy for ns/op gating. Pass -max-alloc-regress to
// fail when any benchmark's allocs/op exceeds its baseline by more than
// the given factor, or its B/op does on a baseline of at least 64 KiB
// per op. Below that floor warm-up jitter dominates B/op, and entries
// recorded before B/op was tracked carry no bytes baseline; neither is
// gated on bytes. allocs/op is far steadier than ns/op but not
// deterministic: some service benchmarks vary by up to ~5% run to run
// at -benchtime 1x, which a factor of 1.5 absorbs.
//
// With -write the tool records instead of comparing: every benchmark in
// the given output (which must come from a -benchmem run) is added to
// the baseline or replaces its entry there, with its ns/op, allocs/op
// and B/op, "recorded" is stamped with today's UTC date, and the note
// and every other entry are kept. Record with the command and -benchtime
// the baseline's note names, so the numbers match what CI measures.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"
)

// bytesGateFloor is the smallest baseline B/op the bytes gate applies
// to. Below it, runs of the same code differ by more than any factor
// worth gating: on a 2-vCPU VM BenchmarkHandshakeRound/batch read
// 0–96 B/op and BenchmarkRoundBatch/batch 193–302 B/op.
const bytesGateFloor = 64 << 10

type entry struct {
	NsOp     float64 `json:"ns_op"`
	AllocsOp float64 `json:"allocs_op"`
	// BytesOp is B/op; nil in entries recorded before the tool tracked
	// it, which the bytes gate skips.
	BytesOp *float64 `json:"bytes_op,omitempty"`
	// hasAllocs reports that the bench line carried allocs/op, i.e. the
	// run used -benchmem; -write refuses lines without it.
	hasAllocs bool
}

type baseline struct {
	Note       string           `json:"note"`
	Recorded   string           `json:"recorded"`
	Benchmarks map[string]entry `json:"benchmarks"`
	// PreFlatEngine is the historical record of the engine the flat
	// layout replaced; it is carried through -write untouched.
	PreFlatEngine json.RawMessage `json:"pre_flat_engine,omitempty"`
}

func main() {
	baselinePath := flag.String("baseline", "BENCH_baseline.json", "tracked baseline JSON")
	maxAllocRegress := flag.Float64("max-alloc-regress", 0,
		"fail when allocs/op, or B/op on a baseline of at least 64 KiB, exceeds baseline by more than this factor (0 = never fail)")
	write := flag.Bool("write", false,
		"record the runs' ns/op, allocs/op and B/op into the baseline and stamp today's date instead of comparing")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: ecs-benchcmp [-baseline file] [-write] bench-output.txt...")
		os.Exit(2)
	}

	base, err := readBaseline(*baselinePath)
	if err != nil {
		fatal(err)
	}

	current := map[string]entry{}
	var order []string
	for _, path := range flag.Args() {
		if err := parseBenchFile(path, current, &order); err != nil {
			fatal(err)
		}
	}

	if *write {
		if err := record(&base, current, order, time.Now().UTC().Format("2006-01-02")); err != nil {
			fatal(err)
		}
		if err := writeBaseline(*baselinePath, base); err != nil {
			fatal(err)
		}
		fmt.Printf("recorded %d benchmark(s) into %s\n", len(order), *baselinePath)
		return
	}

	fmt.Printf("## Benchmark comparison vs baseline (%s)\n\n", base.Recorded)
	fmt.Println("| benchmark | ns/op | baseline ns/op | Δ ns/op | allocs/op | baseline allocs/op | Δ allocs/op | B/op | baseline B/op | Δ B/op |")
	fmt.Println("|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|")
	for _, name := range order {
		cur := current[name]
		b, tracked := base.Benchmarks[name]
		if !tracked {
			fmt.Printf("| %s | %s | — | (untracked) | %s | — | (untracked) | %s | — | (untracked) |\n",
				name, fmtNum(cur.NsOp), fmtNum(cur.AllocsOp), fmtBytes(cur.BytesOp))
			continue
		}
		fmt.Printf("| %s | %s | %s | %s | %s | %s | %s | %s | %s | %s |\n",
			name,
			fmtNum(cur.NsOp), fmtNum(b.NsOp), delta(cur.NsOp, b.NsOp),
			fmtNum(cur.AllocsOp), fmtNum(b.AllocsOp), delta(cur.AllocsOp, b.AllocsOp),
			fmtBytes(cur.BytesOp), fmtBytes(b.BytesOp), deltaBytes(cur.BytesOp, b.BytesOp))
	}
	for _, name := range missing(base, current) {
		b := base.Benchmarks[name]
		fmt.Printf("| %s | (not run) | %s | — | (not run) | %s | — | (not run) | %s | — |\n",
			name, fmtNum(b.NsOp), fmtNum(b.AllocsOp), fmtBytes(b.BytesOp))
	}
	fmt.Println()
	fmt.Println("ns/op on shared CI runners is indicative only; allocs/op, and B/op above 64 KiB per op, vary by a few percent at most, which the gate factor absorbs.")

	if *maxAllocRegress > 0 {
		fails := regressions(base, current, order, *maxAllocRegress)
		for _, f := range fails {
			fmt.Fprintln(os.Stderr, "FAIL:", f)
		}
		if len(fails) > 0 {
			os.Exit(1)
		}
	}
}

// regressions returns one message per gate the run fails at the given
// factor: allocs/op above factor × a nonzero baseline, B/op above factor
// × a baseline of at least bytesGateFloor, and tracked benchmarks
// missing from the run — a benchmark that silently stopped running
// (renamed, or a CI -bench regex typo) would otherwise disable its gate.
func regressions(base baseline, current map[string]entry, order []string, factor float64) []string {
	var fails []string
	for _, name := range order {
		cur, b := current[name], base.Benchmarks[name]
		if b.AllocsOp > 0 && cur.AllocsOp > b.AllocsOp*factor {
			fails = append(fails, fmt.Sprintf("%s allocs/op %.0f > %.1f x baseline %.0f",
				name, cur.AllocsOp, factor, b.AllocsOp))
		}
		if b.BytesOp != nil && *b.BytesOp >= bytesGateFloor && cur.BytesOp != nil && *cur.BytesOp > *b.BytesOp*factor {
			fails = append(fails, fmt.Sprintf("%s B/op %.0f > %.1f x baseline %.0f",
				name, *cur.BytesOp, factor, *b.BytesOp))
		}
	}
	for _, name := range missing(base, current) {
		fails = append(fails, fmt.Sprintf("tracked benchmark %s missing from the run (renamed? -bench regex?)", name))
	}
	return fails
}

// missing lists the tracked benchmarks absent from the run, sorted.
func missing(base baseline, current map[string]entry) []string {
	var names []string
	for name := range base.Benchmarks {
		if _, ok := current[name]; !ok {
			names = append(names, name)
		}
	}
	slices.Sort(names)
	return names
}

func readBaseline(path string) (baseline, error) {
	var base baseline
	raw, err := os.ReadFile(path)
	if err != nil {
		return base, err
	}
	if err := json.Unmarshal(raw, &base); err != nil {
		return base, fmt.Errorf("parse %s: %w", path, err)
	}
	return base, nil
}

// record adds or replaces the baseline entry of every benchmark in order
// with its parsed run and stamps the baseline with today's date.
func record(base *baseline, current map[string]entry, order []string, today string) error {
	if len(order) == 0 {
		return fmt.Errorf("no benchmark results to record")
	}
	for _, name := range order {
		if !current[name].hasAllocs {
			return fmt.Errorf("%s has no allocs/op; record from a -benchmem run", name)
		}
	}
	if base.Benchmarks == nil {
		base.Benchmarks = map[string]entry{}
	}
	for _, name := range order {
		base.Benchmarks[name] = current[name]
	}
	base.Recorded = today
	return nil
}

// writeBaseline writes base as indented JSON, benchmarks sorted by name.
func writeBaseline(path string, base baseline) error {
	var sb strings.Builder
	enc := json.NewEncoder(&sb)
	enc.SetEscapeHTML(false) // the note quotes shell commands, which may hold &, < and >
	enc.SetIndent("", "  ")
	if err := enc.Encode(base); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(sb.String()), 0o644)
}

// parseBenchFile extracts "BenchmarkX  N  v ns/op [v B/op] [v allocs/op]"
// lines, normalizing away the -GOMAXPROCS suffix.
func parseBenchFile(path string, out map[string]entry, order *[]string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := normalizeName(fields[0])
		var e entry
		// Walk (value, unit) pairs after the iteration count.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			switch fields[i+1] {
			case "ns/op":
				e.NsOp = v
			case "B/op":
				e.BytesOp = &v
			case "allocs/op":
				e.AllocsOp, e.hasAllocs = v, true
			}
		}
		if e.NsOp == 0 {
			continue
		}
		if _, seen := out[name]; !seen {
			*order = append(*order, name)
		}
		out[name] = e
	}
	return sc.Err()
}

// normalizeName strips the trailing -N GOMAXPROCS suffix go test appends
// on multi-core machines, so names match the baseline keys everywhere.
func normalizeName(name string) string {
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

func fmtNum(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'f', 1, 64)
}

// fmtBytes formats an optional B/op figure, "—" when absent.
func fmtBytes(v *float64) string {
	if v == nil {
		return "—"
	}
	return fmtNum(*v)
}

// deltaBytes is delta over optional B/op figures.
func deltaBytes(cur, base *float64) string {
	if cur == nil || base == nil {
		return "—"
	}
	return delta(*cur, *base)
}

func delta(cur, base float64) string {
	if base == 0 {
		return "—"
	}
	d := (cur - base) / base * 100
	return fmt.Sprintf("%+.1f%%", d)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ecs-benchcmp:", err)
	os.Exit(1)
}
