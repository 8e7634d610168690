package ecsort

import "context"

// Classes is the typed outcome of Classify: the partition of the input
// items plus the cost that produced it. The partition is stored as
// index classes over the original slice (no items are copied at sort
// time); the typed accessors materialize classes on demand.
type Classes[T any] struct {
	// Indices partitions the items' positions into equivalence classes.
	Indices [][]int
	// Stats is the session cost in Valiant's model.
	Stats Stats
	// Algorithm names the regimen that produced the partition (for Auto,
	// the regimen the planner chose).
	Algorithm string

	items []T
}

// NumClasses returns the number of equivalence classes found.
func (c Classes[T]) NumClasses() int { return len(c.Indices) }

// Class materializes class i as a fresh slice of items.
func (c Classes[T]) Class(i int) []T {
	idx := c.Indices[i]
	out := make([]T, len(idx))
	for j, e := range idx {
		out[j] = c.items[e]
	}
	return out
}

// Materialize returns every class as items, in class order.
func (c Classes[T]) Materialize() [][]T {
	out := make([][]T, len(c.Indices))
	for i := range c.Indices {
		out[i] = c.Class(i)
	}
	return out
}

// Labels returns a canonical labeling over the items: items in the same
// class share a label, labels assigned by order of each class's smallest
// member index.
func (c Classes[T]) Labels() []int {
	return Result{Classes: c.Indices}.Labels(len(c.items))
}

// funcOracle adapts a typed slice plus an equivalence predicate to the
// index-oracle substrate.
type funcOracle[T any] struct {
	items []T
	eq    func(a, b T) bool
}

func (o *funcOracle[T]) N() int { return len(o.items) }

func (o *funcOracle[T]) Same(i, j int) bool { return o.eq(o.items[i], o.items[j]) }

// Classify is the typed generic front end: it sorts any slice by an
// equivalence predicate without the caller hand-rolling an index
// oracle.
//
//	classes, err := ecsort.Classify(ctx, users, func(a, b User) bool {
//		return a.Cohort == b.Cohort
//	}, ecsort.CRUnknownK(), ecsort.Config{})
//
// eq must be a true equivalence relation (reflexive, symmetric,
// transitive) and safe for concurrent calls; parallel rounds may invoke
// it from several goroutines. The wrapper adds no more than a couple of
// allocations over the raw oracle path (gated by
// TestClassifyAllocOverhead), so there is no performance reason to
// prefer hand-rolled oracles.
func Classify[T any](ctx context.Context, items []T, eq func(a, b T) bool, alg Algorithm, cfg Config) (Classes[T], error) {
	res, err := Sort(ctx, &funcOracle[T]{items: items, eq: eq}, alg, cfg)
	if err != nil {
		return Classes[T]{}, err
	}
	return Classes[T]{
		Indices:   res.Classes,
		Stats:     res.Stats,
		Algorithm: res.Algorithm,
		items:     items,
	}, nil
}
