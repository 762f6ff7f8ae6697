package experiment

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/hypercube"
	"repro/internal/logicalid"
	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// ClaimAvailability quantifies the paper's availability argument: "in an
// incomplete logical hypercube, there are multiple disjoint local
// logical routes between each pair of CHs ... multiple candidate logical
// routes become available immediately". For each dimension it sweeps the
// node failure fraction and reports surviving disjoint paths and pair
// connectivity.
func ClaimAvailability(o Options) []*Table {
	t := &Table{
		ID:      "C1",
		Title:   "availability: surviving disjoint paths and connectivity under CH failures",
		Columns: []string{"dim", "fail frac", "avail. disjoint paths (mean)", "pair connectivity", "diameter"},
	}
	dims := scaleInts([]int{3, 4, 5, 6}, o.Scale, []int{3, 4})
	fracs := []float64{0, 0.1, 0.2, 0.3}
	trials := scaleInt(200, o.Scale, 40)

	// One sweep point per (dim, frac) cell; each cell's trials draw from
	// the cell's positionally derived stream.
	type cell struct {
		dim  int
		frac float64
	}
	var cells []cell
	for _, dim := range dims {
		for _, frac := range fracs {
			cells = append(cells, cell{dim, frac})
		}
	}
	rows := parSweep(o, cells, func(r runner.Run, c cell) []string {
		rng := xrand.New(r.Seed)
		var paths stats.Accumulator
		connected, totalPairs := 0, 0
		var worstDiam int
		for trial := 0; trial < trials; trial++ {
			cube := hypercube.Complete(c.dim)
			kills := int(c.frac * float64(cube.Size()))
			for i := 0; i < kills; i++ {
				cube.Remove(hypercube.Label(rng.Intn(cube.Size())))
			}
			labels := cube.Labels()
			if len(labels) < 2 {
				continue
			}
			for k := 0; k < 4; k++ {
				a := labels[rng.Intn(len(labels))]
				b := labels[rng.Intn(len(labels))]
				if a == b {
					continue
				}
				totalPairs++
				paths.Add(float64(cube.AvailablePaths(a, b)))
				if cube.Distance(a, b) >= 0 {
					connected++
				}
			}
			if d := cube.Diameter(); d > worstDiam {
				worstDiam = d
			}
		}
		conn := 0.0
		if totalPairs > 0 {
			conn = float64(connected) / float64(totalPairs)
		}
		return []string{I(c.dim), F(c.frac), F(paths.Mean()), Pct(conn), I(worstDiam)}
	})
	addRows(t, rows)
	t.Note("paper: an n-cube offers n disjoint paths and sustains n-1 failures; diameter is n when complete")
	return []*Table{t, repairLatency(o)}
}

// repairLatency measures the protocol-level availability: after a
// next-hop CH fails, how long until the Figure 4 beacons restore a
// usable route, and whether an alternate route was already in the table
// at the instant of failure (the paper's "available immediately").
func repairLatency(o Options) *Table {
	t := &Table{
		ID:      "C1b",
		Title:   "availability: route repair after next-hop CH failure",
		Columns: []string{"trial", "alternate at failure", "repair latency (s)", "beacon period (s)"},
	}
	trials := scaleInt(8, o.Scale, 3)
	// Each trial is a self-contained world; fan them out and fold the
	// per-trial outcomes back in trial order.
	type outcome struct {
		row     []string
		hasAlt  bool
		latency float64 // repair latency; < 0 means the route never repaired
		skipped bool    // trial produced no usable src/dst pair: no row at all
	}
	outcomes := parMap(o, trials, func(r runner.Run) outcome {
		trial := r.Index
		spec := scenario.DefaultSpec()
		spec.Seed = o.Seed + uint64(trial)
		spec.Nodes = 0
		w := must(scenario.Build(spec))
		cfg := core.DefaultConfig()
		cfg.RouteTTL = 1000
		w2 := rebuildWithK(w, cfg)
		for i := 0; i < cfg.K+1; i++ {
			w2.BB.BeaconRound()
			w2.Sim.RunUntil(w2.Sim.Now() + cfg.BeaconPeriod)
		}
		rng := xrand.New(spec.Seed)
		src := logicalid.CHID(rng.Intn(w2.Grid.Count()))
		// Destination two logical hops away, routed via a next hop we
		// then kill. Smallest qualifying ID: map iteration order would
		// make the trial outcome irreproducible.
		var dst logicalid.CHID = -1
		for d, dd := range w2.BB.LogicalReach(src, 2) {
			if dd == 2 && (dst < 0 || d < dst) {
				dst = d
			}
		}
		if dst < 0 {
			return outcome{skipped: true}
		}
		routes := w2.BB.Routes(src, dst)
		if len(routes) == 0 {
			return outcome{skipped: true}
		}
		victim := routes[0].NextHop
		w2.Net.Node(w2.BB.CHNodeOf(victim)).Fail()
		w2.CM.Elect()
		// Alternate already in table?
		hasAlt := false
		for _, r := range w2.BB.Routes(src, dst) {
			if r.NextHop != victim && w2.BB.CHNodeOf(r.NextHop) != network.NoNode {
				hasAlt = true
				break
			}
		}
		// Measure beacon rounds until a live-next-hop route (re)appears.
		failAt := w2.Sim.Now()
		repaired := des.Time(-1)
		for i := 0; i < 6 && repaired < 0; i++ {
			w2.BB.BeaconRound()
			w2.Sim.RunUntil(w2.Sim.Now() + cfg.BeaconPeriod)
			for _, r := range w2.BB.Routes(src, dst) {
				if w2.BB.CHNodeOf(r.NextHop) != network.NoNode {
					repaired = w2.Sim.Now()
					break
				}
			}
		}
		if repaired >= 0 {
			l := float64(repaired - failAt)
			return outcome{
				row:     []string{I(trial), boolStr(hasAlt), F(l), F(float64(cfg.BeaconPeriod))},
				hasAlt:  hasAlt,
				latency: l,
			}
		}
		return outcome{
			row:     []string{I(trial), boolStr(hasAlt), "unrepaired", F(float64(cfg.BeaconPeriod))},
			hasAlt:  hasAlt,
			latency: -1,
		}
	})

	immediate := 0
	var lat stats.Sample
	for _, oc := range outcomes {
		if oc.skipped {
			continue
		}
		if oc.hasAlt {
			immediate++
		}
		if oc.latency >= 0 {
			lat.Add(oc.latency)
		}
		t.AddRow(oc.row...)
	}
	t.Note("alternate-at-failure %d/%d trials (the paper's 'available immediately'); mean repair %.2g s",
		immediate, trials, lat.Mean())
	return t
}

func boolStr(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// ClaimLoadBalance quantifies "no single node is more loaded than any
// other nodes, and no problem of bottlenecks exists, which is likely to
// occur in tree-based architectures": identical multi-source traffic on
// the HVDB versus a core-based tree, comparing the forwarding-load
// distribution over the same node population.
func ClaimLoadBalance(o Options) []*Table {
	t := &Table{
		ID:      "C2",
		Title:   "load balancing: forwarding-load distribution, HVDB vs core-based tree",
		Columns: []string{"protocol", "jain index", "max/mean load", "max load", "PDR"},
	}
	packets := scaleInt(15, o.Scale, 5)
	sources := scaleInt(6, o.Scale, 3)

	build := func() *scenario.World {
		spec := scenario.DefaultSpec()
		spec.Seed = o.Seed
		spec.Nodes = scaleInt(160, o.Scale, 64)
		spec.Groups = 1
		spec.MembersPerGroup = scaleInt(16, o.Scale, 8)
		spec.Mobility = scenario.Static
		return must(scenario.Build(spec))
	}

	// The two protocol arms run on identically specced (but separately
	// built) worlds, so they fan out as independent runs. One shared
	// drive keeps the traffic pattern identical between arms.
	drive := func(w *scenario.World, stk protocol.Stack) scenario.Counts {
		stk.Start()
		w.WarmUp(12)
		// The sends are spaced by running the world between them, so
		// when play returns only the drain remains.
		c := measure(w, stk, 0, 5, func(m *scenario.Meter) {
			for s := 0; s < sources; s++ {
				src := w.RandomSource()
				for p := 0; p < packets; p++ {
					m.Send(src, 0, 512)
					w.RunUntil(w.Sim.Now() + 0.3)
				}
			}
		})
		stk.Stop()
		return c
	}
	rows := parSweep(o, []string{"hvdb", "cbt"}, func(_ runner.Run, proto string) []string {
		w := build()
		c := drive(w, must(w.Protocol(proto)))
		return loadRow(proto, w, c)
	})
	addRows(t, rows)
	t.Note("jain index near 1 = even load; the rendezvous core concentrates traffic by design")
	return []*Table{t}
}

func loadRow(name string, w *scenario.World, c scenario.Counts) []string {
	loads := w.Net.ForwardLoads()
	var acc stats.Accumulator
	for _, l := range loads {
		acc.Add(l)
	}
	maxMean := 0.0
	if acc.Mean() > 0 {
		maxMean = acc.Max() / acc.Mean()
	}
	return []string{name, F(c.Jain), F(maxMean), F(acc.Max()), Pct(c.PDR())}
}

// ClaimScalability quantifies the paper's central scalability argument:
// control overhead per node as the network grows, HVDB summaries versus
// the all-nodes-involved schemes (DSM floods, SPBM updates, PBM member
// floods).
func ClaimScalability(o Options) []*Table {
	t := &Table{
		ID:      "C3",
		Title:   "control overhead scaling (bytes/node/s) vs network size",
		Columns: []string{"VCs", "nodes", "hvdb", "dsm", "pbm", "spbm"},
	}
	horizon := scaleDur(16, o.Scale, 8)
	sizes := scaleInts([]int{4, 8, 12}, o.Scale, []int{4, 8}) // grid side g -> g*g VCs
	protos := []string{"hvdb", "dsm", "pbm", "spbm"}
	nodesFor := func(g int) int { return g * g * 2 }

	// Flatten the size x protocol grid into one batch of independent
	// runs (each builds its own world), then reassemble rows per size.
	type arm struct {
		g     int
		proto string
	}
	var arms []arm
	for _, g := range sizes {
		for _, proto := range protos {
			arms = append(arms, arm{g, proto})
		}
	}
	cells := parSweep(o, arms, func(_ runner.Run, a arm) string {
		spec := scenario.DefaultSpec()
		spec.Seed = o.Seed
		spec.ArenaSize = float64(a.g) * 250
		spec.Dim = 4
		spec.Nodes = nodesFor(a.g)
		spec.Groups = 2
		spec.MembersPerGroup = 8
		spec.Mobility = scenario.Static

		w := must(scenario.Build(spec))
		stk := must(w.Protocol(a.proto))
		stk.Start()
		w.Sim.RunUntil(horizon)
		stk.Stop()
		return F(controlPerNodeSecond(w, horizon))
	})
	for gi, g := range sizes {
		row := []string{I(g * g), I(g*g + nodesFor(g))}
		row = append(row, cells[gi*len(protos):(gi+1)*len(protos)]...)
		t.AddRow(row...)
	}
	t.Note("paper: summaries reach only a portion of nodes, so per-node cost should grow slowest for hvdb")
	return []*Table{t}
}

// ClaimDiameter quantifies "small diameter facilitates small number of
// logical hops on the logical routes": logical hop counts across
// dimensions and the end-to-end hop behaviour they induce.
func ClaimDiameter(o Options) []*Table {
	t := &Table{
		ID:      "C1",
		Title:   "small diameter: logical hops between CH pairs by dimension",
		Columns: []string{"dim", "cube diameter", "mean logical hops", "p95 logical hops", "mean physical hops/logical hop"},
	}
	t.ID = "C4"
	dims := scaleInts([]int{2, 4, 6}, o.Scale, []int{2, 4})
	rows := parSweep(o, dims, func(r runner.Run, dim int) []string {
		rng := xrand.New(r.Seed)
		blockW := 1 << uint((dim+1)/2)
		blockH := 1 << uint(dim/2)
		spec := scenario.DefaultSpec()
		spec.Seed = o.Seed
		spec.Dim = dim
		spec.ArenaSize = float64(max(blockW, blockH)) * 2 * 250
		spec.Nodes = 0
		w := must(scenario.Build(spec))
		w.CM.Elect()

		cube := w.BB.Cube(0)
		var hops stats.Sample
		var physPerLogical stats.Accumulator
		slots := w.Grid.Count()
		pairs := scaleInt(300, o.Scale, 60)
		for i := 0; i < pairs; i++ {
			a := logicalid.CHID(rng.Intn(slots))
			b := logicalid.CHID(rng.Intn(slots))
			if a == b {
				continue
			}
			// Logical distance: BFS over the live logical topology.
			reach := w.BB.LogicalReach(a, 64)
			if d, ok := reach[b]; ok {
				hops.Add(float64(d))
				// Physical cost of one logical hop ~ cells crossed.
				va := w.Grid.FromIndex(int(a))
				vb := w.Grid.FromIndex(int(b))
				cells := float64(absInt(va.CX-vb.CX) + absInt(va.CY-vb.CY))
				if d > 0 {
					physPerLogical.Add(cells / float64(d))
				}
			}
		}
		return []string{I(dim), I(cube.Diameter()), F(hops.Mean()), F(hops.Percentile(95)), F(physPerLogical.Mean())}
	})
	addRows(t, rows)
	t.Note("complete n-cube diameter is n (paper §2.1 property 2); jump links trade physical length for logical hop count")
	return []*Table{t}
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// ClaimComparison is the head-to-head evaluation a full IPDPS paper
// would have carried: PDR, delay, and control overhead for HVDB and the
// four related schemes across node speeds, on identical worlds.
func ClaimComparison(o Options) []*Table {
	speeds := scaleInts([]int{0, 5, 10, 20}, o.Scale, []int{0, 10})
	protos := []string{"hvdb", "flooding", "dsm", "pbm", "spbm", "cbt"}
	pdrT := &Table{ID: "C5", Title: "protocol comparison: packet delivery ratio vs max speed (m/s)",
		Columns: append([]string{"protocol"}, intHeaders(speeds)...)}
	delayT := &Table{ID: "C5b", Title: "protocol comparison: mean delay (ms) vs max speed (m/s)",
		Columns: append([]string{"protocol"}, intHeaders(speeds)...)}
	ctlT := &Table{ID: "C5c", Title: "protocol comparison: control bytes/node/s vs max speed (m/s)",
		Columns: append([]string{"protocol"}, intHeaders(speeds)...)}
	jainT := &Table{ID: "C5d", Title: "protocol comparison: forwarding-load Jain index vs max speed (m/s)",
		Columns: append([]string{"protocol"}, intHeaders(speeds)...)}

	packets := scaleInt(15, o.Scale, 5)

	// The proto x speed grid is the suite's biggest batch of mutually
	// independent runs; flatten it, fan out, and reassemble per-proto
	// rows from the positional results.
	type arm struct {
		proto string
		speed int
	}
	var arms []arm
	for _, proto := range protos {
		for _, speed := range speeds {
			arms = append(arms, arm{proto, speed})
		}
	}
	type cell struct {
		pdr, delay, ctl, jain string
	}
	cells := parSweep(o, arms, func(_ runner.Run, a arm) cell {
		spec := scenario.DefaultSpec()
		spec.Seed = o.Seed
		spec.Nodes = scaleInt(160, o.Scale, 64)
		spec.Groups = 1
		spec.MembersPerGroup = scaleInt(15, o.Scale, 8)
		if a.speed == 0 {
			spec.Mobility = scenario.Static
		} else {
			spec.Mobility = scenario.Waypoint
			spec.MinSpeed = 1
			spec.MaxSpeed = float64(a.speed)
			spec.Pause = 2
		}
		w := must(scenario.Build(spec))
		warm := scaleDur(12, o.Scale, 10)
		stk := must(w.Protocol(a.proto))
		stk.Start()
		w.WarmUp(warm)
		c := cbrTraffic(w, stk, 0, packets, 512, 0.5, 5)
		stk.Stop()
		return cell{pdr: Pct(c.PDR()), delay: F(c.MeanDelay * 1000), ctl: F(c.CtrlPerNodeS), jain: F(c.Jain)}
	})
	for pi, proto := range protos {
		pdrRow := []string{proto}
		delayRow := []string{proto}
		ctlRow := []string{proto}
		jainRow := []string{proto}
		for si := range speeds {
			c := cells[pi*len(speeds)+si]
			pdrRow = append(pdrRow, c.pdr)
			delayRow = append(delayRow, c.delay)
			ctlRow = append(ctlRow, c.ctl)
			jainRow = append(jainRow, c.jain)
		}
		pdrT.AddRow(pdrRow...)
		delayT.AddRow(delayRow...)
		ctlT.AddRow(ctlRow...)
		jainT.AddRow(jainRow...)
	}
	pdrT.Note("flooding is the delivery upper bound; hvdb should stay close at far lower data cost")
	ctlT.Note("dsm floods every node's position network-wide: the paper's non-scalable reference point")
	return []*Table{pdrT, delayT, ctlT, jainT}
}

func intHeaders(xs []int) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf("%d", x)
	}
	return out
}
