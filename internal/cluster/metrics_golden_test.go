package cluster

import (
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"ecsort/internal/service"
)

// TestCoordinatorMetricsFamiliesGolden pins the whole /metrics body of a
// coordinator, byte for byte, over a 2-node in-process cluster holding
// three collections, one of them heavy-placed. A renamed family would
// read 0 in any scraper that looks it up by name. Re-record after an
// intentional change with
//
//	ECSORT_UPDATE_GOLDEN=1 go test -run TestCoordinatorMetricsFamiliesGolden ./internal/cluster
func TestCoordinatorMetricsFamiliesGolden(t *testing.T) {
	co, _ := newChanCluster(t, 2, Config{}, service.Config{Shards: 1, Workers: 1})
	cl := service.NewClient(co)
	for _, key := range []string{"a", "b", "c"} {
		if _, err := cl.CreateCollection(context.Background(), key, service.OracleSpec{Kind: service.KindLabel, Labels: []int{0, 1}}); err != nil {
			t.Fatal(err)
		}
	}
	w := httptest.NewRecorder()
	co.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
	got := w.Body.String()
	path := filepath.Join("testdata", "metrics.golden")
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
		t.Fatalf("/metrics drifted from %s:\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}
