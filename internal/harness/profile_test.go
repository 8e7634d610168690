package harness

import (
	"bytes"
	"strings"
	"testing"
)

func TestRoundProfileCR(t *testing.T) {
	prof, err := RunRoundProfile("cr", 2048, 4, 19)
	if err != nil {
		t.Fatal(err)
	}
	if prof.Algorithm != "SortCR" || len(prof.Widths) == 0 {
		t.Fatalf("profile = %+v", prof)
	}
	// Width trace must sum to the comparison count and never exceed n.
	total := 0
	for _, w := range prof.Widths {
		if w < 1 || w > 2048 {
			t.Fatalf("round width %d out of range", w)
		}
		total += w
	}
	if total == 0 {
		t.Fatal("empty trace")
	}
}

func TestRoundProfileAllAlgorithms(t *testing.T) {
	for _, algo := range []string{"cr", "er", "const"} {
		prof, err := RunRoundProfile(algo, 512, 4, 20)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if len(prof.Widths) == 0 {
			t.Fatalf("%s: empty profile", algo)
		}
	}
	if _, err := RunRoundProfile("bogus", 64, 2, 1); err == nil {
		t.Fatal("bogus algorithm accepted")
	}
}

func TestRenderRoundProfile(t *testing.T) {
	prof := RoundProfile{Algorithm: "SortCR", N: 16, K: 2, Widths: []int{8, 16, 4}}
	var buf bytes.Buffer
	if err := RenderRoundProfile(&buf, prof); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "3 rounds") || !strings.Contains(out, "█") {
		t.Fatalf("render output:\n%s", out)
	}
}
