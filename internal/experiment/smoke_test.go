package experiment

import (
	"testing"

	"repro/internal/protocol"
	"repro/internal/scenario"
)

// The all-experiment smoke pass lives in TestAllExperimentsQuick
// (determinism_test.go), which folds the structural checks into the
// worker-count-invariance sweep so each experiment runs exactly once
// per compared worker count.

// TestRepairLatencyTable checks the C1b availability outcome: alternates
// exist at failure time in most trials and repair completes within a
// few beacon periods.
func TestRepairLatencyTable(t *testing.T) {
	tbl := repairLatency(QuickOptions())
	if len(tbl.Rows) == 0 {
		t.Fatal("no repair trials")
	}
	for _, row := range tbl.Rows {
		if row[2] == "unrepaired" {
			t.Fatalf("trial %s never repaired", row[0])
		}
	}
}

// TestChurnExperimentShape: zero churn must give full delivery against
// current members.
func TestChurnExperimentShape(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy sweep skipped with -short")
	}
	tables := ClaimChurn(QuickOptions())
	first := tables[0].Rows[0]
	if first[0] != "0" {
		t.Fatalf("first row should be zero churn, got %q", first[0])
	}
	if first[1] != "100.0%" {
		t.Fatalf("zero-churn PDR %s want 100%%", first[1])
	}
}

// leakyStack is an arm that ignores Forget, so every sent uid stays
// tracked.
type leakyStack struct{ protocol.Stack }

func (leakyStack) Forget(uint64) {}

// TestMeasureFailsClosedOnLeak: a traffic phase that ends with
// per-packet state still held must panic, not return counts.
func TestMeasureFailsClosedOnLeak(t *testing.T) {
	spec := scenario.DefaultSpec()
	spec.Nodes = 30
	spec.Mobility = scenario.Static
	w := must(scenario.Build(spec))
	stk := must(w.Protocol("flooding"))
	defer func() {
		if recover() == nil {
			t.Fatal("measure returned from a phase that left flights tracked")
		}
	}()
	cbrTraffic(w, leakyStack{stk}, 0, 3, 64, 0.5, 5)
}
