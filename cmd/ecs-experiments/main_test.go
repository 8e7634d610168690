package main

import (
	"bufio"
	"bytes"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"ecsort/internal/harness"
)

// TestFig1RendersOneTableForGivenNK: -exp fig1 with -n or -k renders
// exactly the one Figure 1 table for that (n, k); without them, and
// under -exp all, it keeps its three fixed tables.
func TestFig1RendersOneTableForGivenNK(t *testing.T) {
	render := func(args ...string) string {
		t.Helper()
		c, names := parseFlags(args)
		var out bytes.Buffer
		c.out = &out
		if names[0] != "fig1" {
			t.Fatalf("%v runs %v first, want fig1", args, names)
		}
		if err := c.run("fig1"); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		return out.String()
	}
	table := func(n, k int) string {
		var b bytes.Buffer
		if err := harness.RenderFigure1(&b, n, k, harness.Figure1Schedule(n, k)); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if got, want := render("-exp", "fig1", "-n", "4096", "-k", "4"), table(4096, 4); got != want {
		t.Errorf("-exp fig1 -n 4096 -k 4 printed\n%s\nwant\n%s", got, want)
	}
	three := table(1<<14, 2) + table(1<<17, 4) + table(1<<20, 8)
	for _, args := range [][]string{{"-exp", "fig1"}, {"-exp", "all", "-n", "4096", "-k", "4"}} {
		if got := render(args...); got != three {
			t.Errorf("%v printed\n%s\nwant the three fixed tables", args, got)
		}
	}
	for _, args := range [][]string{{"-exp", "fig1", "-n", "0"}, {"-exp", "fig1", "-k", "-1"}} {
		c, _ := parseFlags(args)
		c.out = io.Discard
		if err := c.run("fig1"); err == nil {
			t.Errorf("%v was accepted", args)
		}
	}
}

// TestEverySweepWithAWriterLeavesCSV runs, at a tiny scale, each sweep
// that has a CSV writer and checks that -csv leaves exactly the expected
// files: one per experiment, except that the rounds sweeps write one per
// k or λ. Every file must hold a header and at least one data row.
func TestEverySweepWithAWriterLeavesCSV(t *testing.T) {
	for _, tc := range []struct {
		exp   string
		files []string
	}{
		{"fig5-uniform", []string{"fig5-uniform"}},
		{"fig5-geometric", []string{"fig5-geometric"}},
		{"fig5-poisson", []string{"fig5-poisson"}},
		{"fig5-zeta", []string{"fig5-zeta"}},
		{"zeta-exponent", []string{"zeta-exponent"}},
		{"lb-equal", []string{"lb-equal"}},
		{"lb-smallest", []string{"lb-smallest"}},
		{"rounds-cr", []string{"rounds-cr-k16", "rounds-cr-k2", "rounds-cr-k4", "rounds-cr-k8"}},
		{"rounds-er", []string{"rounds-er-k2", "rounds-er-k4", "rounds-er-k8"}},
		{"rounds-const", []string{"rounds-const-lambda0.10", "rounds-const-lambda0.20", "rounds-const-lambda0.30"}},
	} {
		t.Run(tc.exp, func(t *testing.T) {
			dir := t.TempDir()
			c := config{scale: 200, trials: 1, n: 64, seed: 2016, csvDir: dir, out: io.Discard}
			if err := c.run(tc.exp); err != nil {
				t.Fatal(err)
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, e := range entries {
				got = append(got, strings.TrimSuffix(e.Name(), ".csv"))
			}
			if !slices.Equal(got, tc.files) {
				t.Fatalf("-csv wrote %v, want %v", got, tc.files)
			}
			for _, name := range tc.files {
				if rows := csvLines(t, filepath.Join(dir, name+".csv")); rows < 2 {
					t.Errorf("%s.csv has %d lines, want a header and data", name, rows)
				}
			}
		})
	}
}

func csvLines(t *testing.T, path string) int {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n := 0
	for sc := bufio.NewScanner(f); sc.Scan(); {
		n++
	}
	return n
}
