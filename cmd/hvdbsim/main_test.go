package main

import (
	"slices"
	"testing"

	"repro/internal/scenario"
)

// TestTrialClusterCountsCoverTrafficPhase: on a static world whose CHs
// are anchored at every VCC, the backbone is settled once the warm-up
// ends, so the traffic phase sees elections but no CH change. Counting
// from t = 0 would report the warm-up's initial elections as changes.
func TestTrialClusterCountsCoverTrafficPhase(t *testing.T) {
	spec := scenario.DefaultSpec()
	spec.Nodes = 60
	spec.Mobility = scenario.Static
	if !spec.AnchorCHs {
		t.Fatal("the default spec no longer anchors CHs; the test premise is broken")
	}
	res, err := runTrial(spec, trialConfig{proto: "hvdb", warm: 10, packets: 5, payload: 64}, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.CHChanges != 0 {
		t.Errorf("traffic phase counted %d CH changes on a static anchored world, want 0", res.CHChanges)
	}
	if res.Elections == 0 {
		t.Error("traffic phase counted no elections")
	}
}

// TestFuzzChecksEveryInvariant: the -fuzz campaign checks what the
// smoke campaign checks, so its CheckConfig sets the worker pool and
// the shard counts (an empty Shards list skips the shards invariant).
func TestFuzzChecksEveryInvariant(t *testing.T) {
	cfg := fuzzCheck(scenario.DefaultSpec(), "hvdb", 10)
	if cfg.Workers != 4 {
		t.Errorf("fuzz Workers = %d, want 4", cfg.Workers)
	}
	if !slices.Equal(cfg.Shards, []int{2, 4}) {
		t.Errorf("fuzz Shards = %v, want [2 4]", cfg.Shards)
	}
	if !slices.Equal(cfg.Arms, []string{"hvdb"}) || cfg.Warmup != 10 {
		t.Errorf("fuzz config %+v does not carry the flag arm and warm-up", cfg)
	}
}
