package main

import (
	"embed"
	"fmt"

	"repro/internal/des"
	"repro/internal/scenario"
)

//go:embed workloads/*.json
var scriptFS embed.FS

// cell is one world of a workload: a spec, a protocol arm, a warm-up
// and the traffic played against it. Exactly one of script and cbr is
// set.
type cell struct {
	label  string
	arm    string
	spec   scenario.Spec // Seed is filled per run
	warm   des.Duration
	script *scenario.Script
	cbr    *cbrLoad
}

// cbrLoad is the scale sweep's traffic: one source drawn from the
// world's own PRNG (World.RandomSource) sending through World.CBR, then
// a drain. It is kept beside the script engine because the engine draws
// its sources from a different stream, and world-5k has to be the very
// world BENCH_scale.json recorded.
type cbrLoad struct {
	packets, payload int
	gap, drain       des.Duration
}

// workload is a named set of cells run serially as one rep.
type workload struct {
	name, why string
	// seedIndex places the workload in the seed derivation: its worlds
	// get runner.DeriveSeed(seed, seedIndex). world-5k holds index 2,
	// the N=5000 row's position in the scale sweep, so that -seed 1
	// rebuilds the committed BENCH_scale.json world.
	seedIndex int
	// reps is how many timed reps a run takes when -seconds is 0.
	reps  int
	cells []cell
	// eventsAtSeed1, when non-zero, is the executed-event count the
	// workload must reproduce at -seed 1 (a committed record's).
	eventsAtSeed1 uint64
	// sharded makes the traced run repeat the workload on the sharded
	// kernel (des.sharded_speedup); suite makes it time the paper's
	// experiment suite (experiment.suite_wall_s), which no workload
	// owns: churn-1k carries it because its traced run is the shortest,
	// so that none comes near the driver's 180 s limit when the box is
	// slow.
	sharded, suite bool
}

// scaleRowEvents is the executed-event count of the committed
// BENCH_scale.json N=5000 row.
const scaleRowEvents = 8712052

var workloadWhy = map[string]string{
	"world-5k": "Control-plane flood regime: the scale sweep's N=5000 world (6,600 nodes, 10 km arena), where geo-routed membership summaries are nearly all transmissions and des pending sets are deep.",
	"data-1k":  "Data-plane regime: 12,000 multicast sends to 4 static groups on a 1,000-node world, so tree-cache reads, allocation and per-packet state dominate instead of control floods.",
	"churn-1k": "data-1k's world and streams under member churn, node churn, a radio-loss window and a partition strip: cache invalidations, membership writes, perimeter recovery and drop paths.",
	"arms-160": "The stress grid (3 built-in scripts x 6 protocol arms, 160 nodes): the only workload where the baselines and Broadcast fan-out do the work, on small worlds with shallow event queues.",
}

// buildWorkloads returns the four workloads at full size, or shrunk to
// sub-second worlds when quick.
func buildWorkloads(quick bool) ([]*workload, error) {
	pick := func(full, small int) int {
		if quick {
			return small
		}
		return full
	}
	base := scenario.DefaultSpec()

	scale := base
	scale.Nodes, scale.ArenaSize = pick(5000, 150), float64(pick(10000, 2000))
	scale.Groups, scale.MembersPerGroup = 1, pick(20, 10)

	data := base
	data.Nodes, data.ArenaSize = pick(1000, 120), float64(pick(4000, 2000))
	data.Groups, data.MembersPerGroup = 4, pick(25, 8)

	arms := base
	arms.Nodes, arms.Groups, arms.MembersPerGroup = pick(160, 64), 1, pick(15, 8)

	wls := []*workload{
		{name: "world-5k", seedIndex: 2, reps: 3, sharded: true, cells: []cell{{
			label: "hvdb/cbr", arm: "hvdb", spec: scale, warm: des.Duration(pick(15, 10)),
			cbr: &cbrLoad{packets: 10, payload: 512, gap: 0.5, drain: 5},
		}}},
		{name: "data-1k", seedIndex: 0, reps: 5},
		{name: "churn-1k", seedIndex: 1, reps: 5, suite: true},
		{name: "arms-160", seedIndex: 3, reps: 3},
	}
	for _, wl := range wls[1:3] {
		sc, err := loadScript(wl.name, quick)
		if err != nil {
			return nil, err
		}
		wl.cells = []cell{{label: "hvdb/" + wl.name, arm: "hvdb", spec: data, warm: des.Duration(pick(15, 10)), script: sc}}
	}
	scripts := scenario.BuiltinScripts()
	if quick {
		scripts = scripts[:1]
	}
	for _, name := range scripts {
		for _, arm := range []string{"hvdb", "flooding", "dsm", "pbm", "spbm", "cbt"} {
			sc, err := scenario.BuiltinScript(name)
			if err != nil {
				return nil, err
			}
			wls[3].cells = append(wls[3].cells, cell{
				label: arm + "/" + name, arm: arm, spec: arms, warm: des.Duration(pick(12, 10)), script: sc,
			})
		}
	}
	for _, wl := range wls {
		wl.why = workloadWhy[wl.name]
		if quick {
			wl.reps = 2
		}
	}
	if !quick {
		wls[0].eventsAtSeed1 = scaleRowEvents
	}
	return wls, nil
}

// loadScript reads bench/workloads/<name>.json. Quick mode keeps the
// timetable and cuts every stream to 1/30 of its packets.
func loadScript(name string, quick bool) (*scenario.Script, error) {
	raw, err := scriptFS.ReadFile("workloads/" + name + ".json")
	if err != nil {
		return nil, err
	}
	sc, err := scenario.ParseScript(raw)
	if err != nil {
		return nil, fmt.Errorf("workloads/%s.json: %w", name, err)
	}
	if quick {
		for i := range sc.Directives {
			if d := &sc.Directives[i]; d.Packets > 0 {
				d.Packets /= 30
				d.Interval *= 30
			}
		}
	}
	return sc, nil
}

func findWorkload(wls []*workload, name string) *workload {
	for _, wl := range wls {
		if wl.name == name {
			return wl
		}
	}
	return nil
}
