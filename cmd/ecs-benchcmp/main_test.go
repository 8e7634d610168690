package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const benchOutput = `goos: linux
goarch: amd64
pkg: ecsort/internal/core
BenchmarkSortCR-2                	       5	   1671238 ns/op	  858776 B/op	      46 allocs/op
BenchmarkSortZeta/ER-16          	       5	  30322160 ns/op	10872321 B/op	      18 allocs/op
BenchmarkSortZeta/CRUnknownK     	       5	  24500618.5 ns/op	10176384 B/op	      79 allocs/op
PASS
ok  	ecsort/internal/core	2.247s
`

const oldBaseline = `{
  "note": "Regenerate with: go test -run '^$' -bench 'BenchmarkSortCR$' -benchmem ./internal/core && go run ./cmd/ecs-benchcmp -write bench.txt",
  "recorded": "2026-01-01",
  "benchmarks": {
    "BenchmarkSortCR": {"ns_op": 1700000, "allocs_op": 149},
    "BenchmarkMergeGroup": {"ns_op": 66217, "allocs_op": 2},
    "BenchmarkIngest/shards=1": {"ns_op": 4680514, "allocs_op": 381, "bytes_op": 1596896}
  },
  "pre_flat_engine": {
    "note": "for the record",
    "benchmarks": {"BenchmarkIngestSingleCollection": {"ns_op": 16408668, "allocs_op": 541687}}
  }
}
`

func writeFile(t *testing.T, dir, name, body string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestWriteRoundTrip records bench output into a baseline, reads the
// file back, and checks that names lose their -GOMAXPROCS suffix, runs
// replace or join the tracked entries with their B/op, untouched entries
// (with or without bytes_op), the note and pre_flat_engine survive, and
// the recorded numbers compare equal to the run they came from.
func TestWriteRoundTrip(t *testing.T) {
	dir := t.TempDir()
	benchPath := writeFile(t, dir, "bench.txt", benchOutput)
	basePath := writeFile(t, dir, "baseline.json", oldBaseline)

	base, err := readBaseline(basePath)
	if err != nil {
		t.Fatal(err)
	}
	current := map[string]entry{}
	var order []string
	if err := parseBenchFile(benchPath, current, &order); err != nil {
		t.Fatal(err)
	}
	wantOrder := []string{"BenchmarkSortCR", "BenchmarkSortZeta/ER", "BenchmarkSortZeta/CRUnknownK"}
	if strings.Join(order, ",") != strings.Join(wantOrder, ",") {
		t.Fatalf("parsed names %v, want %v", order, wantOrder)
	}
	if err := record(&base, current, order, "2026-10-16"); err != nil {
		t.Fatal(err)
	}
	if err := writeBaseline(basePath, base); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(basePath)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), `\u0026`) {
		t.Errorf("note was HTML-escaped:\n%s", raw)
	}
	got, err := readBaseline(basePath)
	if err != nil {
		t.Fatal(err)
	}
	var old baseline
	if err := json.Unmarshal([]byte(oldBaseline), &old); err != nil {
		t.Fatal(err)
	}
	if got.Note != old.Note {
		t.Errorf("note = %q, want %q", got.Note, old.Note)
	}
	if got.Recorded != "2026-10-16" {
		t.Errorf("recorded = %q, want 2026-10-16", got.Recorded)
	}
	var gotPre, oldPre any
	if err := json.Unmarshal(got.PreFlatEngine, &gotPre); err != nil {
		t.Fatalf("pre_flat_engine lost: %v", err)
	}
	if err := json.Unmarshal(old.PreFlatEngine, &oldPre); err != nil {
		t.Fatal(err)
	}
	if a, b := mustJSON(t, gotPre), mustJSON(t, oldPre); a != b {
		t.Errorf("pre_flat_engine = %s, want %s", a, b)
	}
	want := map[string]entry{
		"BenchmarkSortCR":              {NsOp: 1671238, AllocsOp: 46, BytesOp: bytesOp(858776)},
		"BenchmarkSortZeta/ER":         {NsOp: 30322160, AllocsOp: 18, BytesOp: bytesOp(10872321)},
		"BenchmarkSortZeta/CRUnknownK": {NsOp: 24500618.5, AllocsOp: 79, BytesOp: bytesOp(10176384)},
		"BenchmarkMergeGroup":          {NsOp: 66217, AllocsOp: 2},
		"BenchmarkIngest/shards=1":     {NsOp: 4680514, AllocsOp: 381, BytesOp: bytesOp(1596896)},
	}
	if len(got.Benchmarks) != len(want) {
		t.Errorf("baseline holds %d benchmarks, want %d: %v", len(got.Benchmarks), len(want), got.Benchmarks)
	}
	for name, w := range want {
		if g := got.Benchmarks[name]; !sameEntry(g, w) {
			t.Errorf("%s = %s, want %s", name, mustJSON(t, g), mustJSON(t, w))
		}
	}
	for _, name := range order {
		if b, cur := got.Benchmarks[name], current[name]; !sameEntry(b, cur) {
			t.Errorf("%s: recorded %s does not compare equal to its run %s", name, mustJSON(t, b), mustJSON(t, cur))
		}
	}
	if strings.Count(string(raw), `"bytes_op"`) != 4 {
		t.Errorf("want bytes_op on exactly the three recorded entries and the one that had it:\n%s", raw)
	}
}

func bytesOp(v float64) *float64 { return &v }

func sameEntry(a, b entry) bool {
	if a.NsOp != b.NsOp || a.AllocsOp != b.AllocsOp || (a.BytesOp == nil) != (b.BytesOp == nil) {
		return false
	}
	return a.BytesOp == nil || *a.BytesOp == *b.BytesOp
}

// TestParseBytesPerOp reads B/op where -benchmem printed it and leaves
// it unset where it did not.
func TestParseBytesPerOp(t *testing.T) {
	dir := t.TempDir()
	benchPath := writeFile(t, dir, "bench.txt", benchOutput+
		"BenchmarkIngest/shards=4-2 \t 1 \t 6546709 ns/op \t 760625 elems/s \t 3417184 B/op \t 1167 allocs/op\n"+
		"BenchmarkLabels-2 \t 1 \t 912 ns/op\n")
	current := map[string]entry{}
	var order []string
	if err := parseBenchFile(benchPath, current, &order); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]*float64{
		"BenchmarkSortCR":          bytesOp(858776),
		"BenchmarkSortZeta/ER":     bytesOp(10872321),
		"BenchmarkIngest/shards=4": bytesOp(3417184), // after a custom metric
		"BenchmarkLabels":          nil,
	} {
		got := current[name].BytesOp
		if (got == nil) != (want == nil) || (got != nil && *got != *want) {
			t.Errorf("%s B/op = %s, want %s", name, fmtBytes(got), fmtBytes(want))
		}
	}
	if e := current["BenchmarkIngest/shards=4"]; e.AllocsOp != 1167 || e.NsOp != 6546709 {
		t.Errorf("BenchmarkIngest/shards=4 = %+v, want 6546709 ns/op and 1167 allocs/op", e)
	}
}

// TestRegressions pins the -max-alloc-regress gates: allocs/op against
// any nonzero baseline, B/op only against a recorded baseline of at
// least 64 KiB, and a tracked benchmark missing from the run.
func TestRegressions(t *testing.T) {
	base := baseline{Benchmarks: map[string]entry{
		"BenchmarkIngest/shards=8":   {AllocsOp: 2294, BytesOp: bytesOp(6818240)},
		"BenchmarkClusterIngest":     {AllocsOp: 650, BytesOp: bytesOp(200 << 10)},
		"BenchmarkAtFloor":           {AllocsOp: 10, BytesOp: bytesOp(bytesGateFloor)},
		"BenchmarkBelowFloor":        {AllocsOp: 0, BytesOp: bytesOp(bytesGateFloor - 1)},
		"BenchmarkHandshakeRound":    {AllocsOp: 0, BytesOp: bytesOp(0)},
		"BenchmarkExecute/spawn":     {AllocsOp: 10}, // predates bytes_op
		"BenchmarkNotRunAnyMore/sub": {AllocsOp: 1, BytesOp: bytesOp(1 << 20)},
	}}
	for _, tc := range []struct {
		name string
		cur  entry
		want string // substring of the one expected failure; "" for none
	}{
		{"BenchmarkIngest/shards=8", entry{AllocsOp: 2294, BytesOp: bytesOp(12669008)}, "BenchmarkIngest/shards=8 B/op 12669008 > 1.5 x baseline 6818240"},
		{"BenchmarkIngest/shards=8", entry{AllocsOp: 2294, BytesOp: bytesOp(1.5 * 6818240)}, ""},
		{"BenchmarkIngest/shards=8", entry{AllocsOp: 3500, BytesOp: bytesOp(6818240)}, "allocs/op 3500 > 1.5 x baseline 2294"},
		{"BenchmarkIngest/shards=8", entry{AllocsOp: 2294}, ""}, // a run without -benchmem B/op is not compared
		{"BenchmarkClusterIngest", entry{AllocsOp: 650, BytesOp: bytesOp(17 * 200 << 10)}, "BenchmarkClusterIngest B/op"},
		{"BenchmarkAtFloor", entry{AllocsOp: 10, BytesOp: bytesOp(2 * bytesGateFloor)}, "BenchmarkAtFloor B/op"},
		{"BenchmarkBelowFloor", entry{BytesOp: bytesOp(100 * bytesGateFloor)}, ""},
		{"BenchmarkHandshakeRound", entry{BytesOp: bytesOp(53)}, ""},
		{"BenchmarkExecute/spawn", entry{AllocsOp: 10, BytesOp: bytesOp(1 << 30)}, ""},
	} {
		current := map[string]entry{tc.name: tc.cur}
		for name, b := range base.Benchmarks {
			if name != tc.name && name != "BenchmarkNotRunAnyMore/sub" {
				current[name] = b
			}
		}
		fails := regressions(base, current, []string{tc.name}, 1.5)
		if len(fails) == 0 || !strings.Contains(fails[len(fails)-1], "BenchmarkNotRunAnyMore/sub missing") {
			t.Fatalf("%s: a tracked benchmark missing from the run did not fail: %q", tc.name, fails)
		}
		fails = fails[:len(fails)-1]
		switch {
		case tc.want == "" && len(fails) > 0:
			t.Errorf("%s %s: unexpected failures %q", tc.name, mustJSON(t, tc.cur), fails)
		case tc.want != "" && (len(fails) != 1 || !strings.Contains(fails[0], tc.want)):
			t.Errorf("%s %s: failures %q, want one containing %q", tc.name, mustJSON(t, tc.cur), fails, tc.want)
		}
	}
}

// TestWriteNeedsBenchmem refuses to record a run without allocs/op: it
// would silently zero the allocation gate of every benchmark it touched.
func TestWriteNeedsBenchmem(t *testing.T) {
	dir := t.TempDir()
	benchPath := writeFile(t, dir, "bench.txt", "BenchmarkSortCR-2 \t 5 \t 1671238 ns/op\n")
	current := map[string]entry{}
	var order []string
	if err := parseBenchFile(benchPath, current, &order); err != nil {
		t.Fatal(err)
	}
	base := baseline{Benchmarks: map[string]entry{"BenchmarkSortCR": {NsOp: 1, AllocsOp: 149}}}
	if err := record(&base, current, order, "2026-10-16"); err == nil {
		t.Fatal("record accepted a run without allocs/op")
	}
	if base.Benchmarks["BenchmarkSortCR"].AllocsOp != 149 || base.Recorded != "" {
		t.Errorf("a refused record changed the baseline: %+v", base)
	}
}

func TestNormalizeName(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkSortCR-2":                "BenchmarkSortCR",
		"BenchmarkIngest/shards=4-16":      "BenchmarkIngest/shards=4",
		"BenchmarkClusterIngest/nodes=1":   "BenchmarkClusterIngest/nodes=1",
		"BenchmarkIngestZeroCopy/stdjson":  "BenchmarkIngestZeroCopy/stdjson",
		"BenchmarkSortZeta/CRUnknownK-128": "BenchmarkSortZeta/CRUnknownK",
	} {
		if got := normalizeName(in); got != want {
			t.Errorf("normalizeName(%q) = %q, want %q", in, got, want)
		}
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
