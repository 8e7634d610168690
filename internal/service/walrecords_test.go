package service

import (
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ecsort/internal/wal"
)

// readRecords replays shard 0's WAL under dir into one line per record.
func readRecords(t *testing.T, dir string) []string {
	t.Helper()
	var lines []string
	_, err := wal.Replay(filepath.Join(dir, "shard-0"), 0, func(r wal.Record) error {
		var line string
		switch r.Type {
		case wal.RecCreate:
			line = fmt.Sprintf("create %s %s", r.Key, r.Spec)
		case wal.RecDrop:
			line = "drop " + r.Key
		case wal.RecBatch:
			line = fmt.Sprintf("batch %s %v", r.Key, r.Items)
		case wal.RecFlush:
			line = "flush " + r.Key
		case wal.RecDelete:
			line = fmt.Sprintf("delete %s %d", r.Key, r.Elem)
		case wal.RecInvalidate:
			line = fmt.Sprintf("invalidate %s %d", r.Key, r.Elem)
		case wal.RecResilience:
			line = fmt.Sprintf("resilience %s %s", r.Key, r.Spec)
		default:
			line = fmt.Sprintf("type-%d %s", r.Type, r.Key)
		}
		lines = append(lines, line)
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return lines
}

// metricValue scrapes one unlabeled series from the service's /metrics.
func metricValue(t *testing.T, svc *Service, name string) string {
	t.Helper()
	w := httptest.NewRecorder()
	svc.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
	for _, line := range strings.Split(w.Body.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			return v
		}
	}
	t.Fatalf("/metrics has no %s series", name)
	return ""
}

// TestWALRecordsGolden pins the records a fixed operation sequence
// writes on a durable service, and the fsyncs it costs under "always":
// which operations log, in which order, and which log nothing (a
// rejected ingest, a fresh read with nothing pending). Re-record after
// an intentional change with
//
//	ECSORT_UPDATE_GOLDEN=1 go test -run TestWALRecordsGolden ./internal/service
func TestWALRecordsGolden(t *testing.T) {
	dir := t.TempDir()
	svc, err := Open(Config{Shards: 1, Workers: 1, BatchSize: 4, DataDir: dir, Fsync: "always"})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	const key = "k"
	labels := []int{0, 1, 0, 1, 2, 2, 0, 1}
	spec := OracleSpec{Kind: KindLabel, Labels: labels, Resilience: &ResilienceSpec{Votes: 1, BreakerThreshold: 50}}
	must := func(what string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	must("create", svc.CreateCollection(key, spec))
	_, err = svc.Ingest(key, []int{0, 1}, false) // below BatchSize: buffered
	must("ingest below batch size", err)
	_, err = svc.Ingest(key, []int{2, 3, 4}, false) // crosses BatchSize: folds
	must("ingest across batch size", err)
	_, err = svc.Ingest(key, []int{5}, true) // ?flush=1
	must("forced ingest", err)
	if _, err := svc.Ingest(key, []int{6, 5}, false); err == nil {
		t.Fatal("ingest of an already-ingested element was accepted")
	}
	_, err = svc.Classes(key, true) // nothing pending: no record
	must("fresh read, nothing pending", err)
	_, err = svc.DeleteItem(key, 1)
	must("delete", err)
	_, err = svc.InvalidateClass(key, 0, false)
	must("invalidate without fold", err)
	_, err = svc.InvalidateClass(key, 0, true)
	must("invalidate with fold", err)
	_, err = svc.Ingest(key, []int{6, 7}, false)
	must("ingest to pending", err)
	_, err = svc.Classes(key, true) // folds the pending items
	must("fresh read", err)
	must("resilience update", svc.UpdateResilience(key, ResilienceSpec{Votes: 3, BreakerThreshold: 9}))
	must("drop", svc.DropCollection(key))

	got := strings.Join(readRecords(t, dir), "\n") + "\n"
	got += "ecsort_wal_fsyncs_total " + metricValue(t, svc, "ecsort_wal_fsyncs_total") + "\n"
	path := filepath.Join("testdata", "wal_records.golden")
	if os.Getenv("ECSORT_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v (record it with ECSORT_UPDATE_GOLDEN=1)", path, err)
	}
	if got != string(want) {
		t.Fatalf("WAL records drifted from %s:\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

// TestIdleShardSyncsWALTail: under fsync "interval", Commit syncs only
// at an operation boundary once the interval has passed, so the last
// writes before a quiet period need the shard's sync timer to reach disk.
// A create and one small ingest land inside the interval of the
// segment's boot sync; with no operation after them, the fsync counter
// must still move within the interval.
func TestIdleShardSyncsWALTail(t *testing.T) {
	const interval = 250 * time.Millisecond
	start := time.Now()
	svc, err := Open(Config{Shards: 1, Workers: 1, DataDir: t.TempDir(), Fsync: "interval", FsyncInterval: interval})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if err := svc.CreateCollection("k", OracleSpec{Kind: KindLabel, Labels: []int{0, 1, 0, 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Ingest("k", []int{0, 1}, false); err != nil {
		t.Fatal(err)
	}
	synced := svc.walCtr.Fsyncs.Load()
	if time.Since(start) >= interval {
		t.Skipf("setup took %v, longer than the %v interval: the ingest's own commit may have synced the tail", time.Since(start), interval)
	}
	deadline := time.Now().Add(10 * interval)
	for svc.walCtr.Fsyncs.Load() == synced {
		if time.Now().After(deadline) {
			t.Fatalf("WAL tail unsynced %v after the last write: %d appends, %d fsyncs",
				10*interval, svc.walCtr.Appends.Load(), svc.walCtr.Fsyncs.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRepairCorrectionRecords checks the shape of what a repair
// correction logs: one or two invalidations (the withdrawn classes of
// the diverging pair), then the flush of the re-fold. The faulted
// oracle that makes corrections happen does not repeat exactly across
// runs, so the shape is pinned rather than the records themselves.
func TestRepairCorrectionRecords(t *testing.T) {
	dir := t.TempDir()
	svc, err := Open(Config{Shards: 1, Workers: 1, DataDir: dir, Fsync: "never", Repair: RepairConfig{Samples: 32, Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	const n = 16
	labels := make([]int, n)
	for i := range labels {
		labels[i] = i % 4
	}
	spec := OracleSpec{
		Kind: KindLabel, Labels: labels,
		Faults:     &FaultSpec{FlipRate: 0.3, Seed: 9},
		Resilience: &ResilienceSpec{Votes: 1, BreakerThreshold: 1000},
	}
	if err := svc.CreateCollection("noisy", spec); err != nil {
		t.Fatal(err)
	}
	items := make([]int, n)
	for i := range items {
		items[i] = i
	}
	if _, err := svc.Ingest("noisy", items, true); err != nil {
		t.Fatal(err)
	}
	before := len(readRecords(t, dir))
	for sweep := 0; sweep < 20 && svc.repairCorrections.Load() == 0; sweep++ {
		svc.RepairSweep()
	}
	corrections := int(svc.repairCorrections.Load())
	if corrections == 0 {
		t.Fatal("20 sweeps at a 30% flip rate made no correction")
	}
	if errs := svc.repairErrors.Load(); errs != 0 {
		t.Fatalf("repair reported %d errors; every correction should complete", errs)
	}
	tail := readRecords(t, dir)[before:]
	groups := 0
	for i := 0; i < len(tail); groups++ {
		inv := 0
		for i < len(tail) && strings.HasPrefix(tail[i], "invalidate noisy ") {
			inv++
			i++
		}
		if inv < 1 || inv > 2 || i >= len(tail) || tail[i] != "flush noisy" {
			t.Fatalf("correction %d does not read 1–2 invalidations then a flush:\n%s", groups, strings.Join(tail, "\n"))
		}
		i++
	}
	if groups != corrections {
		t.Errorf("%d correction groups in the log, %d corrections counted:\n%s", groups, corrections, strings.Join(tail, "\n"))
	}
}
