package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFaultSeedInterprocedural is the engine's proof of life: the
// -tags faultseed build of internal/network seeds a hub write buried
// two module-local calls below a lane function and an acquired packet
// handed to a reference-dropping helper (faultseed_lint.go). Both are
// invisible to the old intraprocedural analyzers; the interprocedural
// engine must report both, each naming the full call path, and nothing
// else. Plain builds exclude the seeded file, so TestRepoLintClean
// keeps the module at zero — that pairing mirrors the PR 7 faultseed
// pattern.
func TestFaultSeedInterprocedural(t *testing.T) {
	root := moduleRootDir(t)
	pkgs, err := LoadWithTags(root, []string{"faultseed"}, "./internal/network")
	if err != nil {
		t.Fatalf("loading faultseed network: %v", err)
	}
	res := Analyze(pkgs)

	var hubWrite, leak *Diagnostic
	for i := range res.Diags {
		d := &res.Diags[i]
		switch d.Analyzer {
		case "shardsafe":
			hubWrite = d
		case "poolpair":
			leak = d
		}
	}
	if hubWrite == nil {
		t.Fatalf("seeded buried hub write not reported; diags: %v", res.Diags)
	}
	if !strings.Contains(hubWrite.Message, "writes shared Network state through w") {
		t.Errorf("hub-write message = %q", hubWrite.Message)
	}
	wantPath := "network.(*Network).faultSeedLaneProbe → network.(*Network).faultSeedHopA → network.(*Network).faultSeedHopB"
	if hubWrite.CallPath != wantPath {
		t.Errorf("hub-write call path = %q, want %q", hubWrite.CallPath, wantPath)
	}
	if filepath.Base(hubWrite.File) != "faultseed_lint.go" {
		t.Errorf("hub write reported in %s, want faultseed_lint.go", hubWrite.File)
	}

	if leak == nil {
		t.Fatalf("seeded dropped-acquire leak not reported; diags: %v", res.Diags)
	}
	if !strings.Contains(leak.Message, "passes pooled p to network.faultSeedInspect, whose summary neither") {
		t.Errorf("leak message = %q", leak.Message)
	}
	if filepath.Base(leak.File) != "faultseed_lint.go" {
		t.Errorf("leak reported in %s, want faultseed_lint.go", leak.File)
	}

	if len(res.Diags) != 2 {
		t.Errorf("want exactly the two seeded diagnostics, got %d:\n%v", len(res.Diags), res.Diags)
	}
}

func moduleRootDir(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above test directory")
		}
		dir = parent
	}
}
