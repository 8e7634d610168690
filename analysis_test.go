package ecsort

import (
	"fmt"
	"os"
	"regexp"
	"testing"

	"ecsort/internal/analysis"
)

// TestStaticAnalysisClean runs the full ecs-vet analyzer suite over the
// module as part of tier-1: the round/alloc/ownership/context/doc
// disciplines are proved on every test run, not just in CI.
func TestStaticAnalysisClean(t *testing.T) {
	findings, err := analysis.Vet(".")
	if err != nil {
		t.Fatalf("loading module for analysis: %v", err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
	if len(findings) > 0 {
		t.Errorf("%d ecs-vet finding(s); run `go run ./cmd/ecs-vet .` for details", len(findings))
	}
}

// mergeHotpaths are the merge-engine and fold functions, by file, whose
// //ecsort:hotpath annotations this test pins: dropping an annotation
// silently drops the hotalloc proof for that function, so removal must
// fail the build.
var mergeHotpaths = map[string][]string{
	"internal/core/merge.go": {
		"appendCross",
		"unite",
		"buildMerged",
		"grow",
		"mergeGroupsCR",
		"RunChunk",
		"merge",
	},
	"internal/model/model.go": {
		"RunPass",
	},
	"internal/core/incremental.go": {
		"FlushIn",
		"load",
		"fold",
		"ask",
	},
}

func TestMergeHotpathAnnotationsPresent(t *testing.T) {
	for file, names := range mergeHotpaths {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			re := regexp.MustCompile(fmt.Sprintf(`(?m)^//ecsort:hotpath\nfunc (\([^)]*\) )?%s(\[[^\]]*\])?\(`, regexp.QuoteMeta(name)))
			if !re.Match(data) {
				t.Errorf("%s: %s has lost its //ecsort:hotpath annotation (must sit on the last line of the doc comment)", file, name)
			}
		}
	}
}
