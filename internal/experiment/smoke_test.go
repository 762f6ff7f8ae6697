package experiment

import (
	"testing"

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

// TestMeasureFailsClosedOnLeak: a traffic phase that ends with audience
// entries still open must panic, not return counts. The phase's one
// send leaves after span and one of its members goes down at once, so
// at Close the entry is neither fully accounted nor past its TTL.
func TestMeasureFailsClosedOnLeak(t *testing.T) {
	spec := scenario.DefaultSpec()
	spec.Nodes = 30
	spec.Mobility = scenario.Static
	w := must(scenario.Build(spec))
	stk := must(w.Protocol("flooding"))
	src := w.RandomSource()
	gone := w.Members[0][0]
	if gone == src {
		gone = w.Members[0][1]
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("measure returned from a phase that left an audience entry open")
		}
		t.Log(r)
	}()
	const span, drain = 1, 5
	measure(w, stk, span, drain, func(m *scenario.Meter) {
		w.Sim.After(span+1, func() {
			if m.Send(src, 0, 64) == 0 {
				t.Fatal("the late send did not start")
			}
			w.Net.Node(gone).Fail()
		})
	})
}
