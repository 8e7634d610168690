// Package ctxflow seeds violations for the ctxflow analyzer: detached
// context roots and entry points without a context, which a Deprecated:
// marker does not excuse, plus the ignore-suppressed escape.
package ctxflow

import "context"

// detach re-roots the context tree in library code.
func detach() context.Context {
	return context.Background() // want ctxflow
}

// todo is just as detached.
func todo() context.Context {
	return context.TODO() // want ctxflow
}

// SortValues is an entry point that cannot be cancelled.
func SortValues(xs []int) []int { // want ctxflow
	return xs
}

// SortSorted threads the caller's context, so it is legal.
func SortSorted(ctx context.Context, xs []int) []int {
	_ = ctx
	return xs
}

// SortLegacy keeps its historic shape; the marker below exempts it from
// nothing.
//
// Deprecated: use SortSorted.
func SortLegacy(xs []int) []int { // want ctxflow
	ctx := context.Background() // want ctxflow
	_ = ctx
	return xs
}

// root is a deliberate lifetime root, suppressed with a reason.
func root() context.Context {
	//ecsort:ignore ctxflow fixture lifetime root for the suppression test
	return context.Background()
}

// malformed carries an ignore directive without the mandatory reason:
// the directive itself becomes a finding and suppresses nothing.
func malformed() context.Context {
	//ecsort:ignore ctxflow
	return context.Background() // want ctxflow
}
