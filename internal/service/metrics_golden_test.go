package service

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMetricsFamiliesGolden pins the whole /metrics body of a populated
// node: every family's "# HELP" and "# TYPE" lines and every sample,
// byte for byte. Dashboards and perfbench read these families by name,
// and a reader that finds no series reads 0, so a rename would zero a
// number without any error. The fixture gives every family at least one
// sample: a plain label collection with a flushed ingest and a delete,
// and two collections behind the resilience middleware, one ingested
// and one empty, whose key needs escaping. Only the two fold timings
// vary run to run; they are checked for their format and masked.
// Re-record after an intentional change with
//
//	ECSORT_UPDATE_GOLDEN=1 go test -run TestMetricsFamiliesGolden ./internal/service
func TestMetricsFamiliesGolden(t *testing.T) {
	svc := New(Config{Shards: 2, Workers: 1})
	defer svc.Close()
	labels := []int{0, 1, 0, 2, 1, 0}
	resilience := &ResilienceSpec{BreakerThreshold: 3}
	for _, c := range []struct {
		key  string
		spec OracleSpec
	}{
		{"plain", OracleSpec{Kind: KindLabel, Labels: labels}},
		{"resilient", OracleSpec{Kind: KindLabel, Labels: labels, Resilience: resilience}},
		{`resilient "empty" \ key`, OracleSpec{Kind: KindLabel, Labels: labels, Resilience: resilience}},
	} {
		if err := svc.CreateCollection(c.key, c.spec); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := svc.Ingest("plain", []int{0, 1, 2, 3, 4, 5}, true); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.DeleteItem("plain", 5); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Ingest("resilient", []int{0, 1, 2, 3}, true); err != nil {
		t.Fatal(err)
	}

	w := httptest.NewRecorder()
	svc.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
	seconds := regexp.MustCompile(`^\d+\.\d{9}$`)
	lines := strings.SplitAfter(w.Body.String(), "\n")
	for i, line := range lines {
		for _, name := range []string{"ecsort_fold_duration_seconds_total", "ecsort_fold_last_duration_seconds"} {
			if v, ok := strings.CutPrefix(line, name+" "); ok {
				if !seconds.MatchString(strings.TrimSuffix(v, "\n")) {
					t.Errorf("%s: value %q is not seconds with nine decimals", name, v)
				}
				lines[i] = name + " <seconds>\n"
			}
		}
	}
	got := strings.Join(lines, "")
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
