package experiment

import (
	"encoding/json"
	"os"
	"testing"

	"repro/internal/runner"
	"repro/internal/scenario"
)

// TestScaleSmoke is the acceptance gate of the 10k-node tentpole: a
// 10,000-mobile-node world (plus its 3,136 anchor CHs) runs the full
// protocol stack with CBR multicast traffic for 60 simulated seconds
// and completes. Before the incremental spatial index and the pooled
// event kernel, this configuration did not finish within a CI budget at
// all; the test existing and passing is the regression fence.
func TestScaleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("10,000-node world skipped with -short")
	}
	cfg := scaleConfig{nodes: 10000, arena: 14000}
	w, err := scenario.Build(scaleSpec(1, cfg, 1))
	if err != nil {
		t.Fatal(err)
	}
	stk := must(w.Protocol("hvdb"))
	stk.Start()
	w.WarmUp(15)
	got := cbrTraffic(w, stk, 0, 30, 512, 1.0, 15) // 15 + 30 + 15 = 60 s
	stk.Stop()

	if got := w.Net.Len(); got < 13000 {
		t.Fatalf("world has %d nodes, want >= 13000", got)
	}
	if w.Sim.Now() < 60 {
		t.Fatalf("run stopped at t=%v, want 60 simulated seconds", w.Sim.Now())
	}
	if w.Sim.Executed() == 0 {
		t.Fatal("no events executed")
	}
	if len(w.CM.HeadSlots()) == 0 {
		t.Fatal("no clusters formed")
	}
	if got.Delivered == 0 {
		t.Fatal("no multicast deliveries in 60 simulated seconds")
	}
	t.Logf("10k world: %d events, %d clusters, pdr %.1f%%",
		w.Sim.Executed(), len(w.CM.HeadSlots()), 100*got.PDR())
}

// TestScaleQuickTable checks the structural contract of the scale
// experiment at quick size (the determinism sweep covers the rest).
func TestScaleQuickTable(t *testing.T) {
	tables := Scale(QuickOptions())
	if len(tables) != 1 {
		t.Fatalf("scale produced %d tables, want 1", len(tables))
	}
	if got := len(tables[0].Rows); got != len(scaleConfigs(QuickOptions())) {
		t.Fatalf("scale table has %d rows, want one per population", got)
	}
}

// TestScaleConfigsMaxNodesSuffix pins the seed-stability contract of
// the MaxNodes cap: capping the sweep only drops a suffix, so every
// surviving population keeps its sweep index (and positional seed).
func TestScaleConfigsMaxNodesSuffix(t *testing.T) {
	full := scaleConfigs(Options{Scale: 1, MaxNodes: 1 << 30})
	if n := len(full); n != 7 || full[n-1].nodes != 1000000 {
		t.Fatalf("uncapped sweep = %+v, want 7 points up to 1M", full)
	}
	def := scaleConfigs(Options{Scale: 1})
	if n := len(def); n != 6 || def[n-1].nodes != 100000 {
		t.Fatalf("default sweep = %+v, want 6 points up to the %d cap", def, DefaultMaxNodes)
	}
	for i := range def {
		if def[i] != full[i] {
			t.Fatalf("capping reordered point %d: %+v vs %+v", i, def[i], full[i])
		}
	}
	for i := 1; i < len(full); i++ {
		if full[i].nodes <= full[i-1].nodes {
			t.Fatalf("sweep populations not ascending at %d: the MaxNodes suffix cut relies on it", i)
		}
	}
}

// TestScaleRecordReproduces re-runs the two smallest rows of the
// committed BENCH_scale.json at their positional seeds and requires
// every recorded field back exactly: the record holds only outcomes
// that are a pure function of the seed, so a mismatch means simulated
// behaviour changed and the file (and the EXPERIMENTS.md tables) must be
// re-recorded with `hvdbbench -json`.
func TestScaleRecordReproduces(t *testing.T) {
	buf, err := os.ReadFile("../../BENCH_scale.json")
	if err != nil {
		t.Fatal(err)
	}
	var rec ScaleRecord
	if err := json.Unmarshal(buf, &rec); err != nil {
		t.Fatalf("parsing BENCH_scale.json: %v", err)
	}
	configs := scaleConfigs(Options{Scale: rec.Scale})
	if len(rec.Points) != len(configs) {
		t.Fatalf("record has %d rows, the default sweep %d", len(rec.Points), len(configs))
	}
	for i, want := range rec.Points[:2] {
		got := runScaleWorld(runner.DeriveSeed(rec.Seed, i), configs[i], 1).ScalePoint
		if got != want {
			t.Errorf("row %d re-ran as %+v, committed %+v", i, got, want)
		}
	}
}

// TestScaleShardEventEquality is the experiment-layer shard gate: the
// same scale world executes exactly the same event sequence at shard
// counts 1, 2, and 4 — not just the same count, the same measured
// metrics to the last bit.
func TestScaleShardEventEquality(t *testing.T) {
	cfg := scaleConfigs(QuickOptions())[1] // 250 nodes: big enough for real traffic
	base := runScaleWorld(1, cfg, 1)
	for _, k := range []int{2, 4} {
		if got := runScaleWorld(1, cfg, k); got != base {
			t.Fatalf("shards=%d diverged: %+v vs serial %+v", k, got, base)
		}
	}
}
