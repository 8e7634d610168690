package ecsort_test

import (
	"context"
	"fmt"
	"math/rand"

	"ecsort"
)

// The basic flow: wrap data in an oracle, sort, read classes and cost.
func ExampleCR() {
	oracle := ecsort.NewLabelOracle([]int{7, 3, 7, 3, 7, 9})
	res, err := ecsort.Sort(context.Background(), oracle, ecsort.CR(3), ecsort.Config{})
	if err != nil {
		panic(err)
	}
	fmt.Println("classes:", res.Canonical())
	// Output:
	// classes: [[0 2 4] [1 3] [5]]
}

// ER needs no knowledge of the number of classes.
func ExampleER() {
	oracle := ecsort.NewLabelOracle([]int{1, 2, 1, 2})
	res, err := ecsort.Sort(context.Background(), oracle, ecsort.ER(), ecsort.Config{})
	if err != nil {
		panic(err)
	}
	fmt.Println("classes:", res.NumClasses())
	// Output:
	// classes: 2
}

// A custom oracle: any type with N and a concurrency-safe Same works.
type modOracle struct{ n, m int }

func (o modOracle) N() int             { return o.n }
func (o modOracle) Same(i, j int) bool { return i%o.m == j%o.m }

func ExampleOracle() {
	res, err := ecsort.Sort(context.Background(), modOracle{n: 9, m: 3}, ecsort.ER(), ecsort.Config{})
	if err != nil {
		panic(err)
	}
	fmt.Println("classes:", res.Canonical())
	// Output:
	// classes: [[0 3 6] [1 4 7] [2 5 8]]
}

// Certify validates a classification with a minimal test schedule.
func ExampleCertify() {
	oracle := ecsort.NewLabelOracle([]int{0, 0, 1})
	fmt.Println("good:", ecsort.Certify(oracle, [][]int{{0, 1}, {2}}, ecsort.Config{}))
	err := ecsort.Certify(oracle, [][]int{{0, 1, 2}}, ecsort.Config{})
	fmt.Println("bad is rejected:", err != nil)
	// Output:
	// good: <nil>
	// bad is rejected: true
}

// Sampling inputs from the paper's Section 4 distributions.
func ExampleSampleLabels() {
	rng := rand.New(rand.NewSource(1))
	labels := ecsort.SampleLabels(ecsort.NewGeometric(0.5), 6, rng)
	fmt.Println("len:", len(labels))
	// Output:
	// len: 6
}

// The Theorem 5 adversary forces any algorithm to spend Ω(n²/f).
func ExampleNewEqualSizeAdversary() {
	adv := ecsort.NewEqualSizeAdversary(64, 4)
	res, err := ecsort.Sort(context.Background(), adv, ecsort.RoundRobin(), ecsort.Config{Workers: 1})
	if err != nil {
		panic(err)
	}
	fmt.Println("forced at least n²/(64f):", res.Stats.Comparisons >= 64*64/(64*4))
	fmt.Println("adversary consistent:", adv.Audit() == nil)
	// Output:
	// forced at least n²/(64f): true
	// adversary consistent: true
}
