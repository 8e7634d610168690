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
    "BenchmarkMergeGroup": {"ns_op": 66217, "allocs_op": 2}
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
// replace or join the tracked entries, untouched entries, the note and
// pre_flat_engine survive, and the recorded numbers compare equal to the
// run they came from.
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
		"BenchmarkSortCR":              {NsOp: 1671238, AllocsOp: 46},
		"BenchmarkSortZeta/ER":         {NsOp: 30322160, AllocsOp: 18},
		"BenchmarkSortZeta/CRUnknownK": {NsOp: 24500618.5, AllocsOp: 79},
		"BenchmarkMergeGroup":          {NsOp: 66217, AllocsOp: 2},
	}
	if len(got.Benchmarks) != len(want) {
		t.Errorf("baseline holds %d benchmarks, want %d: %v", len(got.Benchmarks), len(want), got.Benchmarks)
	}
	for name, w := range want {
		g := got.Benchmarks[name]
		if g.NsOp != w.NsOp || g.AllocsOp != w.AllocsOp {
			t.Errorf("%s = %+v, want ns_op %v allocs_op %v", name, g, w.NsOp, w.AllocsOp)
		}
	}
	for _, name := range order {
		if b, cur := got.Benchmarks[name], current[name]; b.NsOp != cur.NsOp || b.AllocsOp != cur.AllocsOp {
			t.Errorf("%s: recorded %+v does not compare equal to its run %+v", name, b, cur)
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
