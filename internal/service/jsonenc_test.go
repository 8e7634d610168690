package service

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"ecsort/internal/model"
)

// stdIndent is the reference encoding AppendJSON must reproduce byte
// for byte: encoding/json's Encoder with a two-space indent.
func stdIndent(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatalf("reference encode %#v: %v", v, err)
	}
	return buf.Bytes()
}

// checkAppendJSON compares AppendJSON with the reference, both on a nil
// dst and appended after a prefix that must survive untouched.
func checkAppendJSON(t testing.TB, v any) {
	t.Helper()
	want := stdIndent(t, v)
	if got := AppendJSON(nil, v); !bytes.Equal(got, want) {
		t.Fatalf("AppendJSON(%#v):\n got %q\nwant %q", v, got, want)
	}
	prefix := []byte("prefix")
	got := AppendJSON(prefix[:len(prefix):len(prefix)], v)
	if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("AppendJSON after a prefix (%#v):\n got %q\nwant prefix + %q", v, got, want)
	}
}

// randInt draws from a mix of small members, negatives, zero and the
// int extremes.
func randInt(rng *rand.Rand) int {
	switch rng.Intn(8) {
	case 0:
		return 0
	case 1:
		return math.MaxInt
	case 2:
		return math.MinInt
	case 3:
		return -1 - rng.Intn(1000)
	case 4:
		return int(rng.Int63() >> rng.Intn(63))
	}
	return rng.Intn(5000)
}

func randInt64(rng *rand.Rand) int64 {
	switch rng.Intn(6) {
	case 0:
		return math.MaxInt64
	case 1:
		return math.MinInt64
	case 2:
		return -rng.Int63n(1 << 20)
	}
	return rng.Int63n(1 << 20)
}

// randInts returns nil, an empty slice, or up to n random members.
func randInts(rng *rand.Rand, n int) []int {
	switch rng.Intn(6) {
	case 0:
		return nil
	case 1:
		return []int{}
	}
	xs := make([]int, 1+rng.Intn(n))
	for i := range xs {
		xs[i] = randInt(rng)
	}
	return xs
}

func randClassView(rng *rand.Rand) ClassView {
	return ClassView{
		Element:    randInt(rng),
		ClassIndex: randInt(rng),
		Members:    randInts(rng, 40),
		Version:    randInt64(rng),
	}
}

func randSnapshot(rng *rand.Rand) *Snapshot {
	s := &Snapshot{
		Version: randInt64(rng),
		Size:    randInt(rng),
		Stats: model.Stats{
			Comparisons:  randInt64(rng),
			Rounds:       randInt(rng),
			MaxRoundSize: randInt(rng),
		},
	}
	switch rng.Intn(5) {
	case 0: // nil class list
	case 1:
		s.Classes = [][]int{}
	default:
		s.Classes = make([][]int, 1+rng.Intn(12))
		for i := range s.Classes {
			s.Classes[i] = randInts(rng, 20)
		}
	}
	return s
}

// TestAppendJSONParity is the encoder's property test: on random
// ClassView and *Snapshot values — nil and empty slices, an empty class
// list, negative, zero and extreme integers — the direct appenders
// write exactly the reference bytes, as do the encoding/json fallbacks
// for every other response type.
func TestAppendJSONParity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		checkAppendJSON(t, randClassView(rng))
		checkAppendJSON(t, randSnapshot(rng))
	}
	for _, v := range []any{
		ClassView{},
		ClassView{Members: []int{}},
		ClassView{Element: math.MinInt, ClassIndex: math.MaxInt, Members: []int{math.MinInt, -1, 0, math.MaxInt}, Version: math.MinInt64},
		(*Snapshot)(nil),
		&Snapshot{},
		&Snapshot{Classes: [][]int{}},
		&Snapshot{Classes: [][]int{nil, {}, {7}}},
		&Snapshot{Version: math.MaxInt64, Classes: [][]int{{0, 1, 5}, {2, 4}, {3}}, Size: 6,
			Stats: model.Stats{Comparisons: math.MinInt64, Rounds: math.MaxInt, MaxRoundSize: -3}},
		IngestResult{Accepted: 3, Pending: 1, Flushed: true, Version: 2},
		ChurnResult{Element: 4, Requeued: 2, Version: 9},
		CollectionInfo{Key: "k<&>", Kind: KindLabel, Snapshot: &Snapshot{Classes: [][]int{{1}}}},
		errorResponse{Error: "service: \"quoted\" <html> & more"},
		map[string]any{"key": "k", "universe": 3},
		nil,
	} {
		checkAppendJSON(t, v)
	}
}

// TestAppendJSONUnencodable pins the fallback's failure mode: a value
// encoding/json refuses appends nothing.
func TestAppendJSONUnencodable(t *testing.T) {
	dst := []byte("kept")
	if got := AppendJSON(dst, math.NaN()); string(got) != "kept" {
		t.Fatalf("AppendJSON(NaN) = %q, want the dst unchanged", got)
	}
}

// TestAppendJSONFieldsPinned fails when a payload the appenders write
// by hand gains, loses or renames an exported field. Update
// appendClassView or appendSnapshot first, then this list;
// TestAppendJSONParity proves the two agree.
func TestAppendJSONFieldsPinned(t *testing.T) {
	for _, tc := range []struct {
		typ  reflect.Type
		want []string
	}{
		{reflect.TypeOf(ClassView{}), []string{
			"Element int json:element", "ClassIndex int json:class_index",
			"Members []int json:members", "Version int64 json:version"}},
		{reflect.TypeOf(Snapshot{}), []string{
			"Version int64 json:version", "Classes [][]int json:classes",
			"Size int json:size", "Stats model.Stats json:stats"}},
		{reflect.TypeOf(model.Stats{}), []string{
			"Comparisons int64 json:", "Rounds int json:", "MaxRoundSize int json:"}},
	} {
		var got []string
		for i := 0; i < tc.typ.NumField(); i++ {
			f := tc.typ.Field(i)
			if f.IsExported() {
				got = append(got, f.Name+" "+f.Type.String()+" json:"+f.Tag.Get("json"))
			}
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s exported fields changed; update its appender in jsonenc.go, then this list:\n got %q\nwant %q",
				tc.typ, got, tc.want)
		}
	}
}

// TestAppendClassViewAllocs holds the point-lookup encoder at zero
// allocations once dst has room: a 1000-member class appends in place.
func TestAppendClassViewAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	view := ClassView{Element: 17, ClassIndex: 3, Members: make([]int, 1000), Version: 42}
	for i := range view.Members {
		view.Members[i] = 3 * i
	}
	dst := make([]byte, 0, 2*len(stdIndent(t, view)))
	allocs := testing.AllocsPerRun(100, func() {
		dst = appendClassView(dst[:0], &view)
	})
	if allocs != 0 {
		t.Fatalf("appendClassView into a pre-sized dst: %v allocs, want 0", allocs)
	}
	if !bytes.Equal(dst, stdIndent(t, view)) {
		t.Fatal("appendClassView output diverged from the reference")
	}
}

// FuzzAppendJSON drives both appenders with values built from arbitrary
// bytes: each 8-byte word becomes one integer, a 0xFF word ends the
// current class, and the leading words fill the scalar fields.
func FuzzAppendJSON(f *testing.F) {
	seed := func(ws ...uint64) []byte {
		var b []byte
		for _, w := range ws {
			b = binary.LittleEndian.AppendUint64(b, w)
		}
		return b
	}
	f.Add([]byte{})
	f.Add(seed(1, 2, 3, 4, 5, 6, 0xFF, 7))
	f.Add(seed(math.MaxUint64, 1<<63, 0, 0xFF, 0xFF, 1<<63-1))
	f.Add(seed(3, 0, 9, 0xFF, 1, 2, 0xFF, 4, 8, 15, 16, 23, 42))
	f.Fuzz(func(t *testing.T, data []byte) {
		var ints []int64
		for ; len(data) >= 8; data = data[8:] {
			ints = append(ints, int64(binary.LittleEndian.Uint64(data)))
		}
		next := func() int64 {
			if len(ints) == 0 {
				return 0
			}
			x := ints[0]
			ints = ints[1:]
			return x
		}
		view := ClassView{Element: int(next()), ClassIndex: int(next()), Version: next()}
		snap := &Snapshot{Version: next(), Size: int(next()),
			Stats: model.Stats{Comparisons: next(), Rounds: int(next())}}
		if len(ints) > 0 {
			snap.Classes = [][]int{}
			class := []int{}
			for _, x := range ints {
				if x == 0xFF {
					snap.Classes = append(snap.Classes, class)
					class = []int{}
					continue
				}
				class = append(class, int(x))
				view.Members = append(view.Members, int(x))
			}
			snap.Classes = append(snap.Classes, class)
		}
		checkAppendJSON(t, view)
		checkAppendJSON(t, snap)
	})
}
