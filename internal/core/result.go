package core

import (
	"sort"

	"ecsort/internal/model"
)

// Result is the output of an equivalence class sorting run: the classes
// found and the cost charged by the session that produced them.
type Result struct {
	// Classes partitions the elements into their equivalence classes.
	Classes [][]int
	// Stats is the session cost snapshot at completion.
	Stats model.Stats
	// Algorithm names the regimen that produced the result. The
	// Algorithm values of internal/algo fill it (Auto records the
	// regimen it planned); direct calls into this package leave it
	// empty.
	Algorithm string
}

// NumClasses returns the number of classes found.
func (r Result) NumClasses() int { return len(r.Classes) }

// Canonical returns the classes with members sorted ascending and classes
// ordered by smallest member — a normal form for comparisons in tests.
func (r Result) Canonical() [][]int {
	out := make([][]int, len(r.Classes))
	for i, c := range r.Classes {
		cp := make([]int, len(c))
		copy(cp, c)
		sort.Ints(cp)
		out[i] = cp
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// Labels returns a canonical labeling over n elements: elements in the
// same class share a label, labels assigned 0,1,... by order of each
// class's smallest member. Elements not covered by any class get label -1.
func (r Result) Labels(n int) []int {
	labels := make([]int, n)
	for i := range labels {
		labels[i] = -1
	}
	for li, c := range r.Canonical() {
		for _, e := range c {
			labels[e] = li
		}
	}
	return labels
}

// SameClassification reports whether two labelings induce the same
// partition (the actual label values are irrelevant).
func SameClassification(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	fwd := make(map[int]int)
	bwd := make(map[int]int)
	for i := range a {
		if v, ok := fwd[a[i]]; ok {
			if v != b[i] {
				return false
			}
		} else {
			fwd[a[i]] = b[i]
		}
		if v, ok := bwd[b[i]]; ok {
			if v != a[i] {
				return false
			}
		} else {
			bwd[b[i]] = a[i]
		}
	}
	return true
}
