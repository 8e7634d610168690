package main

import (
	"bufio"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

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
