package service

import (
	"bytes"
	"encoding/json"
	"slices"
	"strconv"
)

// AppendJSON appends v's JSON response body to dst and returns the
// extended slice. The bytes are exactly what encoding/json's Encoder
// writes with SetIndent("", "  "), trailing newline included — the body
// of every JSON response the HTTP API sends, and, in a cluster, the
// bytes a node ships for the coordinator to relay unread.
//
// ClassView and *Snapshot, the payloads that grow with class size, are
// appended directly with strconv; every other type goes through
// encoding/json. A value encoding/json cannot encode appends nothing.
func AppendJSON(dst []byte, v any) []byte {
	switch x := v.(type) {
	case ClassView:
		return appendClassView(dst, &x)
	case *Snapshot:
		return appendSnapshot(dst, x)
	}
	// Marshal, Indent and a newline are the Encoder's exact bytes (both
	// escape HTML, and the Encoder indents the same way) at fewer
	// allocations than a fresh Encoder per call. Indent cannot fail on
	// Marshal's output.
	b, err := json.Marshal(v)
	if err != nil {
		return dst
	}
	buf := bytes.NewBuffer(dst)
	_ = json.Indent(buf, b, "", "  ")
	buf.WriteByte('\n')
	return buf.Bytes()
}

// indents holds a newline and the indentation of every nesting depth
// the appenders write: indents[:1+2*d] starts a line at depth d.
const indents = "\n        "

// appendClassView appends v's indented encoding.
//
//ecsort:hotpath
func appendClassView(dst []byte, v *ClassView) []byte {
	dst = slices.Grow(dst, 128+intsSize(v.Members, 2))
	dst = append(dst, "{\n  \"element\": "...)
	dst = strconv.AppendInt(dst, int64(v.Element), 10)
	dst = append(dst, ",\n  \"class_index\": "...)
	dst = strconv.AppendInt(dst, int64(v.ClassIndex), 10)
	dst = append(dst, ",\n  \"members\": "...)
	dst = appendInts(dst, v.Members, 2)
	dst = append(dst, ",\n  \"version\": "...)
	dst = strconv.AppendInt(dst, v.Version, 10)
	return append(dst, "\n}\n"...)
}

// appendSnapshot appends s's indented encoding; a nil s is null.
//
//ecsort:hotpath
func appendSnapshot(dst []byte, s *Snapshot) []byte {
	if s == nil {
		return append(dst, "null\n"...)
	}
	n := 256
	for _, class := range s.Classes {
		n += 8 + intsSize(class, 3)
	}
	dst = slices.Grow(dst, n)
	dst = append(dst, "{\n  \"version\": "...)
	dst = strconv.AppendInt(dst, s.Version, 10)
	dst = append(dst, ",\n  \"classes\": "...)
	switch {
	case s.Classes == nil:
		dst = append(dst, "null"...)
	case len(s.Classes) == 0:
		dst = append(dst, "[]"...)
	default:
		dst = append(dst, '[')
		for i, class := range s.Classes {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, indents[:5]...)
			dst = appendInts(dst, class, 3)
		}
		dst = append(dst, indents[:3]...)
		dst = append(dst, ']')
	}
	dst = append(dst, ",\n  \"size\": "...)
	dst = strconv.AppendInt(dst, int64(s.Size), 10)
	dst = append(dst, ",\n  \"stats\": {\n    \"Comparisons\": "...)
	dst = strconv.AppendInt(dst, s.Stats.Comparisons, 10)
	dst = append(dst, ",\n    \"Rounds\": "...)
	dst = strconv.AppendInt(dst, int64(s.Stats.Rounds), 10)
	dst = append(dst, ",\n    \"MaxRoundSize\": "...)
	dst = strconv.AppendInt(dst, int64(s.Stats.MaxRoundSize), 10)
	return append(dst, "\n  }\n}\n"...)
}

// appendInts appends xs as an array whose elements sit at the given
// depth, one per line, and whose closing bracket sits one level up;
// nil is null and empty is [], as encoding/json writes them.
//
//ecsort:hotpath
func appendInts(dst []byte, xs []int, depth int) []byte {
	switch {
	case xs == nil:
		return append(dst, "null"...)
	case len(xs) == 0:
		return append(dst, "[]"...)
	}
	dst = append(dst, '[')
	for i, x := range xs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, indents[:1+2*depth]...)
		dst = strconv.AppendInt(dst, int64(x), 10)
	}
	dst = append(dst, indents[:2*depth-1]...)
	return append(dst, ']')
}

// intsSize bounds appendInts(xs, depth)'s length from the wider of xs's
// end members: an upper bound when xs is sorted and non-negative, as
// class members are, and an estimate otherwise.
//
//ecsort:hotpath
func intsSize(xs []int, depth int) int {
	if len(xs) == 0 {
		return 4
	}
	w := max(intWidth(xs[0]), intWidth(xs[len(xs)-1]))
	return 4 + 2*depth + len(xs)*(2+2*depth+w)
}

// intWidth is x's decimal width, sign included.
//
//ecsort:hotpath
func intWidth(x int) int {
	w := 1
	if x < 0 {
		w++
	}
	for ; x >= 10 || x <= -10; x /= 10 {
		w++
	}
	return w
}
