package cluster

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ecsort/internal/service"
)

// TestCoordinatorMetricsFamiliesGolden pins every /metrics family a
// coordinator exposes, as its "# HELP" and "# TYPE" lines, over a
// 2-node in-process cluster. A renamed family would read 0 in any
// scraper that looks it up by name. Re-record after an intentional
// change with
//
//	ECSORT_UPDATE_GOLDEN=1 go test -run TestCoordinatorMetricsFamiliesGolden ./internal/cluster
func TestCoordinatorMetricsFamiliesGolden(t *testing.T) {
	co, _ := newChanCluster(t, 2, Config{}, service.Config{Shards: 1, Workers: 1})
	w := httptest.NewRecorder()
	co.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
	var got strings.Builder
	for _, line := range strings.SplitAfter(w.Body.String(), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			got.WriteString(line)
		}
	}
	path := filepath.Join("testdata", "metrics_families.golden")
	if os.Getenv("ECSORT_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v (record it with ECSORT_UPDATE_GOLDEN=1)", path, err)
	}
	if got.String() != string(want) {
		t.Fatalf("/metrics families drifted from %s:\ngot:\n%s\nwant:\n%s", path, got.String(), want)
	}
}
