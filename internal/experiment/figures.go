package experiment

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/georoute"
	"repro/internal/hypercube"
	"repro/internal/logicalid"
	"repro/internal/membership"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/vcgrid"
)

// Figure1 reproduces the paper's Figure 1: the three-tier HVDB model is
// constructed over a live MANET and its tier populations reported.
func Figure1(o Options) []*Table {
	spec := scenario.DefaultSpec()
	spec.Seed = o.Seed
	spec.Nodes = scaleInt(300, o.Scale, 40)
	w := must(scenario.Build(spec))
	stk := must(w.Protocol("hvdb"))
	stk.Start()
	w.Sim.RunUntil(10)
	stk.Stop()

	heads := w.CM.HeadSlots()
	bch, ich := 0, 0
	for _, idx := range heads {
		if w.Scheme.IsBorder(w.Grid.FromIndex(idx)) {
			bch++
		} else {
			ich++
		}
	}
	t := &Table{
		ID:      "F1",
		Title:   "HVDB model construction (paper Fig. 1: MNT / HT / MT tiers)",
		Columns: []string{"tier", "population", "detail"},
	}
	t.AddRow("mobile node tier", I(w.Net.Len()),
		fmt.Sprintf("%d clusters with CHs (%d BCH, %d ICH)", len(heads), bch, ich))
	complete, connected := 0, 0
	for h := 0; h < w.Scheme.NumHypercubes(); h++ {
		c := w.BB.Cube(logicalid.HID(h))
		if c.Count() == c.Size() {
			complete++
		}
		if c.Count() > 0 && c.Connected() {
			connected++
		}
	}
	t.AddRow("hypercube tier", I(w.Scheme.NumHypercubes()),
		fmt.Sprintf("dim %d; %d complete, %d connected", w.Scheme.Dim(), complete, connected))
	mesh := w.BB.Mesh()
	t.AddRow("mesh tier", I(mesh.Count()),
		fmt.Sprintf("%dx%d mesh, connected=%v", mesh.Cols(), mesh.Rows(), mesh.Connected()))
	t.Note("one-to-one CH<->hypercube-node mapping; mesh node actual iff its hypercube has a CH")
	return []*Table{t}
}

// Figure2 reproduces the paper's Figure 2: the 8*8 VC example MANET
// divided into four 4-dimensional logical hypercubes.
func Figure2(o Options) []*Table {
	grid := vcgrid.New(geom.RectWH(0, 0, 2000, 2000), 250)
	scheme := must(logicalid.New(grid, 4))
	t := &Table{
		ID:      "F2",
		Title:   "8x8 VC MANET divided into four 4-D hypercubes (paper Fig. 2)",
		Columns: []string{"hypercube (HID)", "mesh coord", "VCs", "border VCs"},
	}
	for h := 0; h < scheme.NumHypercubes(); h++ {
		hid := logicalid.HID(h)
		mx, my := scheme.MeshCoord(hid)
		vcs := scheme.BlockVCs(hid)
		borders := 0
		for _, vc := range vcs {
			if scheme.IsBorder(vc) {
				borders++
			}
		}
		t.AddRow(I(h), fmt.Sprintf("(%d,%d)", mx, my), I(len(vcs)), I(borders))
	}
	t.Note("grid rows render south-to-north; the figure's layout is the transpose")

	// Render the HID map as the figure draws it.
	m := &Table{ID: "F2b", Title: "VC-to-hypercube map", Columns: []string{"row", "HIDs (west to east)"}}
	for cy := grid.Rows() - 1; cy >= 0; cy-- {
		var cells []string
		for cx := 0; cx < grid.Cols(); cx++ {
			cells = append(cells, I(int(scheme.PlaceOf(vcgrid.VC{CX: cx, CY: cy}).HID)))
		}
		m.AddRow(I(cy), strings.Join(cells, " "))
	}
	return []*Table{t, m}
}

// Figure3 reproduces the paper's Figure 3: the label layout of one 4-D
// logical hypercube and its additional logical links.
func Figure3(o Options) []*Table {
	grid := vcgrid.New(geom.RectWH(0, 0, 2000, 2000), 250)
	scheme := must(logicalid.New(grid, 4))
	t := &Table{
		ID:      "F3",
		Title:   "4-D logical hypercube label layout (paper Fig. 3)",
		Columns: []string{"row", "labels (west to east)"},
	}
	for by := 0; by < 4; by++ {
		var cells []string
		for bx := 0; bx < 4; bx++ {
			cells = append(cells, scheme.PlaceOf(vcgrid.VC{CX: bx, CY: by}).HNID.Bits(4))
		}
		t.AddRow(I(by), strings.Join(cells, " "))
	}

	links := &Table{
		ID:      "F3b",
		Title:   "logical links of node 0000: grid links and additional (jump) links",
		Columns: []string{"neighbor", "grid distance (cells)", "kind"},
	}
	for _, nb := range hypercube.AllNeighbors(0, 4) {
		vc := scheme.VCAt(0, nb)
		d := vcgrid.DistVCs(vcgrid.VC{CX: 0, CY: 0}, vc)
		kind := "grid-adjacent"
		if d > 1 {
			kind = "additional logical link"
		}
		links.AddRow(nb.Bits(4), I(d), kind)
	}
	return []*Table{t, links}
}

// Figure4 exercises the Figure 4 algorithm: proactive local logical
// route maintenance, sweeping the horizon k and reporting convergence
// and cost, and verifying the §4.1 worked example for node 1000.
func Figure4(o Options) []*Table {
	t := &Table{
		ID:      "F4",
		Title:   "proactive local logical route maintenance (paper Fig. 4)",
		Columns: []string{"k", "reach (ground truth)", "destinations known", "coverage", "routes/dest", "ctrl bytes/CH/round"},
	}
	kMax := scaleInt(5, o.Scale, 3)
	// One independent backbone world per horizon k.
	rows := parMap(o, kMax, func(r runner.Run) []string {
		k := r.Index + 1
		spec := scenario.DefaultSpec()
		spec.Seed = o.Seed
		spec.Nodes = 0 // pure backbone: one anchor CH per VC
		w := must(scenario.Build(spec))
		cfg := core.DefaultConfig()
		cfg.K = k
		cfg.RouteTTL = 1000
		// Rebuild the backbone with horizon k (scenario wires defaults).
		w2 := rebuildWithK(w, cfg)

		rounds := k + 1
		for i := 0; i < rounds; i++ {
			w2.BB.BeaconRound()
			w2.Sim.RunUntil(w2.Sim.Now() + cfg.BeaconPeriod)
		}
		var reach, known, routesPerDest stats.Accumulator
		for slot := 0; slot < w2.Grid.Count(); slot++ {
			s := logicalid.CHID(slot)
			gt := w2.BB.LogicalReach(s, k)
			reach.Add(float64(len(gt)))
			known.Add(float64(w2.BB.KnownDestinations(s)))
			nRoutes := 0
			for dest := range gt {
				nRoutes += len(w2.BB.Routes(s, dest))
			}
			if len(gt) > 0 {
				routesPerDest.Add(float64(nRoutes) / float64(len(gt)))
			}
		}
		ctrl := float64(w2.Net.Stats().ControlBytes) / float64(w2.Grid.Count()) / float64(rounds)
		coverage := 0.0
		if reach.Mean() > 0 {
			coverage = known.Mean() / reach.Mean()
		}
		return []string{I(k), F(reach.Mean()), F(known.Mean()), Pct(coverage), F(routesPerDest.Mean()), F(ctrl)}
	})
	addRows(t, rows)
	t.Note("paper: multiple candidate logical routes per destination sustain QoS on failure")

	// Verify the worked example of §4.1 at k=4.
	ex := section41Example(o)
	return []*Table{t, ex}
}

// rebuildWithK rebuilds the protocol stack of a freshly built world with
// a custom core config (the scenario package wires defaults).
func rebuildWithK(w *scenario.World, cfg core.Config) *scenario.World {
	mux := networkBind(w)
	w.BB = core.New(w.Net, mux, w.CM, w.Scheme, cfg)
	w.MS = membership.New(w.BB, membership.DefaultConfig())
	w.CM.Elect()
	return w
}

func section41Example(o Options) *Table {
	spec := scenario.DefaultSpec()
	spec.Seed = o.Seed
	spec.Nodes = 0
	w := must(scenario.Build(spec))
	cfg := core.DefaultConfig()
	cfg.RouteTTL = 1000
	w = rebuildWithK(w, cfg)
	for i := 0; i < 3; i++ {
		w.BB.BeaconRound()
		w.Sim.RunUntil(w.Sim.Now() + cfg.BeaconPeriod)
	}
	// Node 1000 of block 0 sits at VC (0,2).
	slot := logicalid.CHID(w.Grid.Index(vcgrid.VC{CX: 0, CY: 2}))
	t := &Table{
		ID:      "F4b",
		Title:   "§4.1 worked example: local logical routes at node 1000",
		Columns: []string{"destination label", "best hops", "routes", "delay (ms)"},
	}
	for _, nb := range w.BB.LogicalNeighbors(slot) {
		routes := w.BB.Routes(slot, nb)
		if len(routes) == 0 {
			t.AddRow(labelOf(w, nb), "-", "0", "-")
			continue
		}
		t.AddRow(labelOf(w, nb), I(routes[0].Hops), I(len(routes)), F(routes[0].Delay*1000))
	}
	// The paper's 2-hop example: 1000 -> 1001 -> 1100.
	dst := logicalid.CHID(w.Grid.Index(vcgrid.VC{CX: 2, CY: 2})) // label 1100
	routes := w.BB.Routes(slot, dst)
	for _, r := range routes {
		if r.Hops == 2 {
			t.Note("2-logical-hop route to 1100 via %s present (paper's example)", labelOf(w, r.NextHop))
			break
		}
	}
	return t
}

func labelOf(w *scenario.World, slot logicalid.CHID) string {
	p := w.Scheme.CHIDToPlace(slot)
	return p.HNID.Bits(w.Scheme.Dim())
}

// membershipPlaneKinds matches the traffic of the Figure 5 plane,
// whether sent directly or inside a geo envelope.
var membershipPlaneKinds = kindsOf(membership.LocalKind, membership.MNTKind, membership.HTKind)

func kindsOf(bases ...string) func(string) bool {
	return func(kind string) bool {
		for _, b := range bases {
			if kind == b || kind == georoute.KindPrefix+b {
				return true
			}
		}
		return false
	}
}

// Figure5 exercises the Figure 5 algorithm: summary-based membership
// update. It measures the membership plane in isolation — bytes per
// node per second AND the number of nodes the plane involves — against
// the all-nodes-involved alternatives the paper criticizes, and reports
// MT-view convergence.
func Figure5(o Options) []*Table {
	t := &Table{
		ID:    "F5",
		Title: "summary-based membership update (paper Fig. 5): plane-isolated cost",
		Columns: []string{"groups", "hvdb B/node/s", "hvdb nodes involved", "spbm B/node/s",
			"spbm nodes involved", "dsm B/node/s", "dsm nodes involved", "MT coverage"},
	}
	horizon := scaleDur(20, o.Scale, 10)
	groupCounts := scaleInts([]int{1, 4, 8}, o.Scale, []int{1, 2})
	planes := []string{"hvdb", "spbm", "dsm"}

	// Each (group count, membership plane) pair is measured on its own
	// world; flatten the grid into one batch of independent runs.
	type arm struct {
		groups int
		plane  string
	}
	var arms []arm
	for _, groups := range groupCounts {
		for _, plane := range planes {
			arms = append(arms, arm{groups, plane})
		}
	}
	type planeCost struct {
		bytes    float64
		involved int
		coverage float64 // hvdb plane only
	}
	costs := parSweep(o, arms, func(_ runner.Run, a arm) planeCost {
		spec := scenario.DefaultSpec()
		spec.Seed = o.Seed
		spec.Nodes = scaleInt(200, o.Scale, 64)
		spec.Groups = a.groups
		spec.MembersPerGroup = 8
		spec.Mobility = scenario.Static

		if a.plane != "hvdb" {
			// Baseline planes are measured through their World.Protocol arm;
			// the hvdb plane below is measured in isolation (membership
			// service only), which the full-arm surface cannot express.
			w := must(scenario.Build(spec))
			p := must(w.Protocol(a.plane))
			w.Net.ResetTraffic()
			p.Start()
			w.Sim.RunUntil(horizon)
			p.Stop()
			kind := baseline.SPBMUpdateKind
			if a.plane == "dsm" {
				kind = baseline.DSMPositionKind
			}
			match := kindsOf(kind)
			return planeCost{
				bytes:    float64(w.Net.BytesMatching(match)) / float64(w.Net.Len()) / float64(horizon),
				involved: w.Net.SendersMatching(match),
			}
		}

		// HVDB membership plane.
		w := must(scenario.Build(spec))
		w.CM.Elect()
		w.Net.ResetTraffic()
		w.MS.Start()
		w.Sim.RunUntil(horizon)
		w.MS.Stop()
		// MT coverage: fraction of (slot, group) pairs whose MT view
		// names at least the true member-bearing hypercubes.
		covered, total := 0, 0
		truth := groundTruthCubes(w)
		for slot := 0; slot < w.Grid.Count(); slot++ {
			for g := 0; g < a.groups; g++ {
				total++
				view := w.MS.MTSummaryHIDs(logicalid.CHID(slot), membership.Group(g))
				ok := true
				for h := range truth[membership.Group(g)] {
					if !slices.Contains(view, h) {
						ok = false
						break
					}
				}
				if ok {
					covered++
				}
			}
		}
		return planeCost{
			bytes:    float64(w.Net.BytesMatching(membershipPlaneKinds)) / float64(w.Net.Len()) / float64(horizon),
			involved: w.Net.SendersMatching(membershipPlaneKinds),
			coverage: float64(covered) / float64(total),
		}
	})
	for gi, groups := range groupCounts {
		hv := costs[gi*len(planes)]
		sp := costs[gi*len(planes)+1]
		ds := costs[gi*len(planes)+2]
		t.AddRow(I(groups), F(hv.bytes), I(hv.involved), F(sp.bytes), I(sp.involved),
			F(ds.bytes), I(ds.involved), Pct(hv.coverage))
	}
	t.Note("paper: summaries disseminate to only a portion of nodes; DSM/SPBM involve all nodes")
	t.Note("hvdb involvement = members + CHs + geo relays; DSM/SPBM involve every node by design")
	return []*Table{t}
}

// groundTruthCubes maps each group to the hypercubes actually hosting
// members right now.
func groundTruthCubes(w *scenario.World) map[membership.Group]map[logicalid.HID]bool {
	out := make(map[membership.Group]map[logicalid.HID]bool)
	for g, members := range w.Members {
		hs := make(map[logicalid.HID]bool)
		for _, id := range members {
			n := w.Net.Node(id)
			if n == nil || !n.Up() {
				continue
			}
			hs[w.Scheme.PlaceAt(n.TruePos()).HID] = true
		}
		out[g] = hs
	}
	return out
}

// Figure6 exercises the Figure 6 algorithm end to end: PDR, delay, and
// logical hops of HVDB multicast across group sizes.
func Figure6(o Options) []*Table {
	t := &Table{
		ID:      "F6",
		Title:   "logical location-based multicast routing (paper Fig. 6)",
		Columns: []string{"group size", "PDR", "mean delay (ms)", "p95 delay (ms)", "mean logical hops"},
	}
	packets := scaleInt(20, o.Scale, 5)
	rows := parSweep(o, scaleInts([]int{5, 10, 20}, o.Scale, []int{5, 10}), func(_ runner.Run, size int) []string {
		spec := scenario.DefaultSpec()
		spec.Seed = o.Seed
		spec.Nodes = scaleInt(200, o.Scale, 64)
		spec.Groups = 1
		spec.MembersPerGroup = size
		spec.Mobility = scenario.Static
		w := must(scenario.Build(spec))
		stk := must(w.Protocol("hvdb"))
		stk.Start()
		w.WarmUp(12)
		c := cbrTraffic(w, stk, 0, packets, 512, 0.5, 5)
		stk.Stop()
		return []string{I(size), Pct(c.PDR()), F(c.MeanDelay * 1000), F(c.P95Delay * 1000), F(c.MeanHops)}
	})
	addRows(t, rows)
	t.Note("trees cached per the paper; intermediate CHs keep no per-session state")
	return []*Table{t}
}
