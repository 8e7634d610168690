package wal

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestChurnRecordsRoundtrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, 1, Options{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Record{Type: RecBatch, Key: "demo", Items: []int{0, 1, 2}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Record{Type: RecFlush, Key: "demo"}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Record{Type: RecDelete, Key: "demo", Elem: 1}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Record{Type: RecInvalidate, Key: "demo", Elem: 2}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Record{Type: RecFlush, Key: "demo"}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	recs, _ := collect(t, dir, 0)
	want := []Record{
		{Type: RecBatch, Key: "demo", Items: []int{0, 1, 2}},
		{Type: RecFlush, Key: "demo"},
		{Type: RecDelete, Key: "demo", Elem: 1},
		{Type: RecInvalidate, Key: "demo", Elem: 2},
		{Type: RecFlush, Key: "demo"},
	}
	if !reflect.DeepEqual(recs, want) {
		t.Fatalf("records = %+v, want %+v", recs, want)
	}
}

func TestSizeTracksAppends(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, 1, Options{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if got := l.Size(); got != headerSize {
		t.Fatalf("fresh segment Size = %d, want %d", got, headerSize)
	}
	if err := l.Append(Record{Type: RecBatch, Key: "k", Items: []int{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Record{Type: RecDelete, Key: "k", Elem: 2}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(l.Path())
	if err != nil {
		t.Fatal(err)
	}
	if l.Size() != fi.Size() {
		t.Fatalf("Size = %d, file is %d bytes", l.Size(), fi.Size())
	}

	// Reopening for append must pick up the real size, not reset it.
	l2, err := OpenAppend(dir, 1, Options{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Size() != fi.Size() {
		t.Fatalf("reopened Size = %d, want %d", l2.Size(), fi.Size())
	}
}

// TestVersion1SegmentRefused stamps a version-1 header and verifies
// every reader path refuses it loudly instead of reinterpreting it —
// the PERSISTENCE.md versioning contract for the v2 format bump.
func TestVersion1SegmentRefused(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, 1, Options{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Record{Type: RecFlush, Key: "demo"}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, SegmentName(1))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint16(raw[4:6], 1)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := Replay(dir, 0, func(Record) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Replay of v1 segment: err = %v, want ErrCorrupt", err)
	} else if !strings.Contains(err.Error(), "version 1 unsupported") {
		t.Fatalf("Replay error does not name the version: %v", err)
	}
	if _, err := OpenAppend(dir, 1, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("OpenAppend of v1 segment: err = %v, want ErrCorrupt", err)
	}
}

func TestVersion1CheckpointRefused(t *testing.T) {
	dir := t.TempDir()
	cp := &Checkpoint{WALGen: 3, Collections: []CollectionState{{Key: "k", Spec: []byte("{}")}}}
	if err := WriteCheckpoint(dir, cp); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, SnapshotName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint16(raw[4:6], 1)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadCheckpoint(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ReadCheckpoint of v1 file: err = %v, want ErrCorrupt", err)
	}
}
