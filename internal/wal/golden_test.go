package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// Byte goldens for the two on-disk formats: a segment holding one record
// of every type and a checkpoint, each compared byte for byte against a
// file under testdata/. A change that moves these bytes is a format
// change and must bump FormatVersion (docs/PERSISTENCE.md,
// "Versioning"). Re-record after such a change with
//
//	ECSORT_UPDATE_GOLDEN=1 go test -run Golden ./internal/wal

// goldenRecords is the segment golden's content, in append order.
var goldenRecords = []Record{
	{Type: RecCreate, Key: "demo", Spec: []byte(`{"kind":"label","labels":[0,1,0]}`)},
	{Type: RecCreate, Key: "", Spec: []byte{}},
	{Type: RecBatch, Key: "demo", Items: []int{0, 2, 1}},
	{Type: RecBatch, Key: "demo", Items: []int{}},
	// 127 and 128 straddle the 1- to 2-byte uvarint boundary; 16383
	// and 16384 the 2- to 3-byte one.
	{Type: RecBatch, Key: "demo", Items: []int{127, 128, 300, 16383, 16384, 2097151}},
	{Type: RecFlush, Key: "demo"},
	{Type: RecDelete, Key: "demo", Elem: 1},
	{Type: RecInvalidate, Key: "demo", Elem: 16384},
	{Type: RecResilience, Key: "demo", Spec: []byte(`{"votes":3,"breaker_threshold":2}`)},
	{Type: RecDrop, Key: "demo"},
}

// goldenCheckpoint is the checkpoint golden's content.
var goldenCheckpoint = &Checkpoint{
	WALGen: 300,
	Collections: []CollectionState{
		{
			Key: "a", Spec: []byte(`{"kind":"label","labels":[0,0,1,1,2]}`),
			Pending: []int{4}, Elems: []int{0, 1, 2, 3}, Offs: []int{0, 2, 4},
			Ingested: 5, Batches: 2, Flushes: 1,
			Comparisons: 300, Rounds: 2, MaxRoundSize: 129,
		},
		{
			Key: "b", Spec: []byte(`{"kind":"label","labels":[0,1],"algorithm":"er"}`),
			Members: []int{1, 0}, Elems: []int{1, 0}, Offs: []int{0, 1, 2},
			Ingested: 2, Batches: 1, Flushes: 1, Comparisons: 1, Rounds: 1, MaxRoundSize: 1,
		},
		{Key: "", Spec: []byte{}},
	},
}

// checkGolden compares got against testdata/name, or rewrites the file
// when ECSORT_UPDATE_GOLDEN is set.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("ECSORT_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v (record it with ECSORT_UPDATE_GOLDEN=1)", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted: got %d bytes\n% x\nwant %d bytes\n% x", path, len(got), got, len(want), want)
	}
}

// sameRecord compares two records, treating nil and empty slices alike.
func sameRecord(a, b Record) bool {
	return a.Type == b.Type && a.Key == b.Key && a.Elem == b.Elem &&
		bytes.Equal(a.Spec, b.Spec) &&
		reflect.DeepEqual(append([]int{}, a.Items...), append([]int{}, b.Items...))
}

func TestSegmentGolden(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, 300, Options{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range goldenRecords {
		if err := l.Append(r); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, SegmentName(300)))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "segment.golden", got)

	recs, sum := collect(t, dir, 0)
	if sum.Records != len(goldenRecords) || sum.TornTail {
		t.Fatalf("summary = %+v, want %d intact records", sum, len(goldenRecords))
	}
	for i := range goldenRecords {
		if !sameRecord(recs[i], goldenRecords[i]) {
			t.Errorf("record %d = %+v, want %+v", i, recs[i], goldenRecords[i])
		}
	}
}

func TestCheckpointGolden(t *testing.T) {
	dir := t.TempDir()
	if err := WriteCheckpoint(dir, goldenCheckpoint); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, SnapshotName))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "checkpoint.golden", got)

	cp, ok, err := ReadCheckpoint(dir)
	if err != nil || !ok {
		t.Fatalf("ReadCheckpoint: ok=%v err=%v", ok, err)
	}
	want := *goldenCheckpoint
	want.Collections = append([]CollectionState(nil), want.Collections...)
	want.Collections[2].Spec = []byte{} // decodes as an empty, non-nil slice
	if !reflect.DeepEqual(cp, &want) {
		t.Errorf("checkpoint read back as\n%+v\nwant\n%+v", cp, &want)
	}
}

// TestAppendUnknownTypeWritesNothing: a record type the decoder does
// not know is refused before any byte reaches the segment or the
// counters.
func TestAppendUnknownTypeWritesNothing(t *testing.T) {
	dir := t.TempDir()
	var ctr Counters
	l, err := Create(dir, 1, Options{Policy: SyncNever, Counters: &ctr})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Record{Type: RecFlush, Key: "k"}); err != nil {
		t.Fatal(err)
	}
	size, appends, written := l.Size(), ctr.Appends.Load(), ctr.Bytes.Load()
	for _, typ := range []byte{0, RecResilience + 1, 0xFF} {
		if err := l.Append(Record{Type: typ, Key: "k", Elem: 3, Items: []int{1}}); err == nil {
			t.Errorf("Append of record type %d succeeded", typ)
		}
	}
	if l.Size() != size || ctr.Appends.Load() != appends || ctr.Bytes.Load() != written {
		t.Errorf("refused appends moved size %d→%d, appends %d→%d, bytes %d→%d",
			size, l.Size(), appends, ctr.Appends.Load(), written, ctr.Bytes.Load())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(filepath.Join(dir, SegmentName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != size {
		t.Errorf("segment holds %d bytes, want %d", fi.Size(), size)
	}
	recs, _ := collect(t, dir, 0)
	if len(recs) != 1 || recs[0].Type != RecFlush {
		t.Errorf("replayed %+v, want the one flush record", recs)
	}
}
