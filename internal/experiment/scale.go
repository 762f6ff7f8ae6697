package experiment

// The Scale family measures how far the simulator itself scales: the
// paper evaluates 200-600 node worlds, and the hot-path work in
// internal/des and internal/network (pooled event heap, incremental
// spatial index, interned accounting) exists precisely to open
// 10,000-node scenarios. The "scale" experiment reports the
// deterministic protocol-side metrics per population; RecordScale is
// the same sweep as the machine-readable rows `hvdbbench -json` prints
// and BENCH_scale.json commits. Everything here is a pure function of
// the seed: host-side timing of these worlds belongs to bench/.

import (
	"fmt"
	"math"

	"repro/internal/des"
	"repro/internal/runner"
	"repro/internal/scenario"
)

// scaleConfig is one population of the scale sweep. Arena side grows
// with the node count so spatial density stays near the paper's running
// example (200 nodes on 2000 m); sides are multiples of one hypercube
// block (4 VCs) so the logical decomposition stays regular.
type scaleConfig struct {
	nodes int
	arena float64
	// cell overrides the VC tile side; 0 keeps the spec default (250 m).
	// The mega worlds widen cells so the anchor backbone stays near the
	// 56x56 grid of the 10k point instead of growing quadratically.
	cell float64
}

// DefaultMaxNodes caps the scale sweep; the 1M point runs only when a
// caller raises Options.MaxNodes (hvdbbench -maxnodes).
const DefaultMaxNodes = 100000

// scaleConfigs returns the sweep: the paper's population up to the 10k
// target at full scale plus the mega-scale points up to o.MaxNodes, two
// miniature worlds at quick scale. Node counts ascend, so the MaxNodes
// cut always drops a suffix and every surviving config keeps its sweep
// index — and with it its positional seed.
func scaleConfigs(o Options) []scaleConfig {
	if o.Scale < 1 {
		return []scaleConfig{{nodes: 100, arena: 1500}, {nodes: 250, arena: 2250}}
	}
	all := []scaleConfig{
		{nodes: 200, arena: 2000},
		{nodes: 1000, arena: 4000},
		{nodes: 5000, arena: 10000},
		{nodes: 10000, arena: 14000},
		// Mega worlds: constant ~51 nodes/km^2 density, constant 56x56
		// VC backbone via wider cells (arena = 56 cells exactly).
		{nodes: 50000, arena: 31360, cell: 560},
		{nodes: 100000, arena: 44240, cell: 790},
		{nodes: 1000000, arena: 140000, cell: 2500},
	}
	max := o.MaxNodes
	if max <= 0 {
		max = DefaultMaxNodes
	}
	n := len(all)
	for n > 0 && all[n-1].nodes > max {
		n--
	}
	return all[:n]
}

// scaleSpec builds the scenario of one sweep point: anchored CHs,
// default waypoint mobility, one group of 20 members (10 in the
// miniature worlds) drawn from the mobile population.
func scaleSpec(seed uint64, c scaleConfig, shards int) scenario.Spec {
	spec := scenario.DefaultSpec()
	spec.Seed = seed
	spec.Nodes = c.nodes
	spec.ArenaSize = c.arena
	spec.Groups = 1
	spec.MembersPerGroup = 20
	if c.nodes < 200 {
		spec.MembersPerGroup = 10
	}
	spec.Shards = shards
	if c.cell > 0 {
		spec.CellSize = c.cell
	}
	return spec
}

// Scale timing: warm the protocol stack (the membership planes need
// their MNT/HT rounds to converge before delivery is meaningful), then
// a CBR phase, then drain.
const (
	scaleWarmBase  des.Duration = 15
	scaleDrainBase des.Duration = 5
	// scaleRefArena is the 10k row's arena side: the largest world whose
	// geo paths fit the base warmup/drain windows. Every paper-faithful
	// population sits at or below it and keeps the recorded timing
	// exactly.
	scaleRefArena              = 14000.0
	scalePackets               = 10
	scalePayload               = 512
	scaleGap      des.Duration = 0.5
)

// scaleTiming returns one sweep point's warmup and drain windows.
// Geo-routed path length grows with arena diameter, so the mega worlds
// (arena > scaleRefArena) scale both windows linearly with arena side,
// rounded up to whole simulated seconds — otherwise deliveries outlive
// the observation window and the recorded PDR measures the cutoff, not
// the protocol (the pre-PR-10 mega rows sagged to 71.5% at N=100k for
// exactly that reason). Rows at or below the reference arena keep the
// base 15 s + 5 s bit-exactly, so their recorded tables never move.
func scaleTiming(c scaleConfig) (warm, drain des.Duration) {
	warm, drain = scaleWarmBase, scaleDrainBase
	if c.arena > scaleRefArena {
		f := c.arena / scaleRefArena
		warm = des.Duration(math.Ceil(float64(scaleWarmBase) * f))
		drain = des.Duration(math.Ceil(float64(scaleDrainBase) * f))
	}
	return warm, drain
}

// ScaleRecord is the scale sweep as `hvdbbench -json` prints it and
// BENCH_scale.json commits it: the options that select the worlds and
// one ScalePoint per population. Every field is a pure function of the
// seed, so a re-run on any machine must reproduce the committed file
// exactly (TestScaleRecordReproduces).
type ScaleRecord struct {
	Seed   uint64       `json:"seed"`
	Scale  float64      `json:"scale"`
	Points []ScalePoint `json:"points"`
}

// ScalePoint is one population's row of a ScaleRecord.
type ScalePoint struct {
	Nodes         int     `json:"nodes"`
	TotalNodes    int     `json:"total_nodes"` // including anchors
	ArenaM        float64 `json:"arena_m"`
	SimSeconds    float64 `json:"sim_seconds"`
	Events        uint64  `json:"events"`
	DeliveryRatio float64 `json:"delivery_ratio"`
}

// scaleResult is one scale world's outcome: the recorded point plus the
// columns only the table shows.
type scaleResult struct {
	ScalePoint
	clusters  int
	delayMean float64 // seconds
	ctrlPNS   float64 // control bytes/node/second over the whole run
}

// runScaleWorld drives one population end to end. Everything it returns
// is a pure function of (seed, config) — independent of shards, which
// only changes how the same event sequence is scheduled onto cores —
// and holds no reference to the world, so the sweep parallelizes with
// byte-identical tables at any worker or shard count and each world is
// collectable as soon as its point finishes.
func runScaleWorld(seed uint64, c scaleConfig, shards int) scaleResult {
	w := must(scenario.Build(scaleSpec(seed, c, shards)))
	if shards > 1 && w.Eng == nil {
		panic(fmt.Sprintf("experiment: scale world declined shards=%d: %s", shards, w.ShardNote))
	}
	stk := must(w.Protocol("hvdb"))
	stk.Start()
	warm, drain := scaleTiming(c)
	w.RunUntil(warm) // no traffic reset: ctrlPNS covers the whole run
	got := cbrTraffic(w, stk, 0, scalePackets, scalePayload, scaleGap, drain)
	stk.Stop()
	return scaleResult{
		ScalePoint: ScalePoint{
			Nodes:         c.nodes,
			TotalNodes:    w.Net.Len(),
			ArenaM:        c.arena,
			SimSeconds:    float64(w.Sim.Now()),
			Events:        w.Sim.Executed(),
			DeliveryRatio: got.PDR(),
		},
		clusters:  len(w.CM.HeadSlots()),
		delayMean: got.MeanDelay,
		ctrlPNS:   controlPerNodeSecond(w, w.Sim.Now()),
	}
}

// scaleSweep runs every population of the sweep across the worker
// budget; the table and the JSON rows are two renderings of its result.
func scaleSweep(o Options) []scaleResult {
	return parSweep(o, scaleConfigs(o), func(r runner.Run, c scaleConfig) scaleResult {
		return runScaleWorld(r.Seed, c, o.Shards)
	})
}

// Scale regenerates the scale table: protocol behavior as the world
// grows from the paper's population to 10,000 nodes.
func Scale(o Options) []*Table {
	t := &Table{
		ID:    "scale",
		Title: "simulator scale sweep: 10 CBR multicast packets per population",
		Columns: []string{
			"mobile", "total", "arena_m", "clusters",
			"events", "pdr", "delay_ms", "ctrl_B/node/s",
		},
	}
	for _, res := range scaleSweep(o) {
		t.AddRow(
			I(res.Nodes), I(res.TotalNodes), I(int(res.ArenaM)), I(res.clusters),
			U(res.Events), Pct(res.DeliveryRatio),
			F(res.delayMean*1000), F(res.ctrlPNS),
		)
	}
	t.Note("arena grows with population (constant density ~%d nodes/km^2); events = kernel events over %gs simulated at arenas <= %gm, warmup/drain scaling with arena side beyond it", 50, float64(scaleWarmBase)+float64(scalePackets)*float64(scaleGap)+float64(scaleDrainBase), scaleRefArena)
	t.Note("`hvdbbench -json` prints these rows as JSON (committed as BENCH_scale.json); wall-clock, allocation and heap figures are bench/'s (bench/BASELINE.json)")
	return []*Table{t}
}

// RecordScale runs the scale sweep — the worlds, seeds and worker
// fan-out of Run("scale", o) — and returns its rows in population
// order.
func RecordScale(o Options) ScaleRecord {
	o = o.withDefaults()
	rec := ScaleRecord{Seed: o.Seed, Scale: o.Scale}
	for _, res := range scaleSweep(o) {
		rec.Points = append(rec.Points, res.ScalePoint)
	}
	return rec
}
