package service

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMetricsFamiliesGolden pins every /metrics family a fresh node
// exposes: its name, help text and type, one "# HELP" and one "# TYPE"
// line each. Dashboards and perfbench read these families by name, and
// a reader that finds no series reads 0, so a rename would zero a
// number without any error. Re-record after an intentional change with
//
//	ECSORT_UPDATE_GOLDEN=1 go test -run TestMetricsFamiliesGolden ./internal/service
func TestMetricsFamiliesGolden(t *testing.T) {
	svc := New(Config{Shards: 2, Workers: 1})
	defer svc.Close()
	w := httptest.NewRecorder()
	svc.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
	var got strings.Builder
	for _, line := range strings.SplitAfter(w.Body.String(), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			got.WriteString(line)
		}
	}
	path := filepath.Join("testdata", "metrics_families.golden")
	if os.Getenv("ECSORT_UPDATE_GOLDEN") != "" {
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
