package core

import (
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/geom"
	"repro/internal/hypercube"
	"repro/internal/logicalid"
	"repro/internal/mobility"
	"repro/internal/network"
	"repro/internal/radio"
	"repro/internal/vcgrid"
	"repro/internal/xrand"
)

// testbed builds the paper's example configuration: an 8x8 VC grid
// (2000x2000 m, 250 m cells) divided into four 4-D hypercubes, with one
// static CH-capable node at every VCC. skip lists VC indices left
// without any node (holes -> incomplete hypercubes).
type testbed struct {
	sim    *des.Simulator
	net    *network.Network
	cm     *cluster.Manager
	scheme *logicalid.Scheme
	bb     *Backbone
	// nodeAt maps VC index to the node placed there (NoNode if skipped).
	nodeAt map[int]network.NodeID
}

func newTestbed(t *testing.T, cfg Config, skip ...int) *testbed {
	t.Helper()
	tb := &testbed{nodeAt: map[int]network.NodeID{}}
	tb.sim = des.New()
	arena := geom.RectWH(0, 0, 2000, 2000)
	tb.net = network.New(tb.sim, arena, xrand.New(7))
	grid := vcgrid.New(arena, 250)
	skipped := map[int]bool{}
	for _, s := range skip {
		skipped[s] = true
	}
	for i := 0; i < grid.Count(); i++ {
		if skipped[i] {
			tb.nodeAt[i] = network.NoNode
			continue
		}
		n := tb.net.AddNode(&mobility.Static{P: grid.Center(grid.FromIndex(i))}, radio.DefaultCH, nil, true)
		tb.nodeAt[i] = n.ID
	}
	mux := network.Bind(tb.net)
	tb.cm = cluster.NewManager(tb.net, grid, cluster.DefaultConfig())
	var err error
	tb.scheme, err = logicalid.New(grid, 4)
	if err != nil {
		t.Fatal(err)
	}
	tb.bb = New(tb.net, mux, tb.cm, tb.scheme, cfg)
	tb.cm.Elect()
	return tb
}

// slotOfLabel returns the CH slot of the given label string in block 0.
func (tb *testbed) slotOfLabel(label string) logicalid.CHID {
	var l hypercube.Label
	for _, ch := range label {
		l = l<<1 | hypercube.Label(ch-'0')
	}
	vc := tb.scheme.VCAt(0, l)
	return logicalid.CHID(tb.scheme.Grid().Index(vc))
}

func TestBackboneAssembly(t *testing.T) {
	tb := newTestbed(t, DefaultConfig())
	// With a CH in every VC, all four hypercubes are complete and the
	// mesh is complete — the paper's Figure 1 structure.
	for h := logicalid.HID(0); h < 4; h++ {
		c := tb.bb.Cube(h)
		if c.Count() != 16 {
			t.Fatalf("cube %d has %d nodes want 16", h, c.Count())
		}
		if !c.Connected() {
			t.Fatalf("cube %d disconnected", h)
		}
	}
	m := tb.bb.Mesh()
	if m.Count() != 4 || !m.Connected() {
		t.Fatalf("mesh count %d", m.Count())
	}
}

func TestIncompleteStructures(t *testing.T) {
	// Empty an entire block (block 3: VCs with cx>=4, cy>=4) plus one
	// VC of block 0.
	var skip []int
	grid := vcgrid.New(geom.RectWH(0, 0, 2000, 2000), 250)
	for cy := 4; cy < 8; cy++ {
		for cx := 4; cx < 8; cx++ {
			skip = append(skip, grid.Index(vcgrid.VC{CX: cx, CY: cy}))
		}
	}
	skip = append(skip, grid.Index(vcgrid.VC{CX: 1, CY: 1})) // label 0011 in block 0
	tb := newTestbed(t, DefaultConfig(), skip...)
	if c := tb.bb.Cube(0); c.Count() != 15 {
		t.Fatalf("cube 0 count %d want 15", c.Count())
	}
	if c := tb.bb.Cube(3); c.Count() != 0 {
		t.Fatalf("cube 3 count %d want 0", c.Count())
	}
	m := tb.bb.Mesh()
	if m.Has(3) {
		t.Fatal("mesh node 3 should be absent (no hypercube exists in it)")
	}
	if m.Count() != 3 {
		t.Fatalf("mesh count %d want 3", m.Count())
	}
}

// TestSection41NeighborExample pins the paper's worked example: the
// 1-logical-hop routes of node 1000 are 1001, 1010, 0010, 1100 and
// 0000. Label 1000 sits at VC (0,2) — the grid's west edge — so it has
// no adjacent-hypercube route, exactly the five the paper lists.
func TestSection41NeighborExample(t *testing.T) {
	tb := newTestbed(t, DefaultConfig())
	slot := tb.slotOfLabel("1000")
	want := map[logicalid.CHID]bool{
		tb.slotOfLabel("1001"): true,
		tb.slotOfLabel("1010"): true,
		tb.slotOfLabel("0010"): true,
		tb.slotOfLabel("1100"): true,
		tb.slotOfLabel("0000"): true,
	}
	got := tb.bb.LogicalNeighbors(slot)
	if len(got) != len(want) {
		t.Fatalf("neighbors %v want %d slots", got, len(want))
	}
	for _, s := range got {
		if !want[s] {
			t.Fatalf("unexpected logical neighbor slot %d", s)
		}
	}
}

func TestLogicalNeighborsSkipEmptyVCs(t *testing.T) {
	grid := vcgrid.New(geom.RectWH(0, 0, 2000, 2000), 250)
	hole := grid.Index(vcgrid.VC{CX: 1, CY: 2}) // label 1001
	tb := newTestbed(t, DefaultConfig(), hole)
	slot := tb.slotOfLabel("1000")
	for _, s := range tb.bb.LogicalNeighbors(slot) {
		if s == logicalid.CHID(hole) {
			t.Fatal("empty VC appeared as logical neighbor")
		}
	}
	if got := len(tb.bb.LogicalNeighbors(slot)); got != 4 {
		t.Fatalf("neighbors %d want 4 after hole", got)
	}
}

func TestBCHClassification(t *testing.T) {
	tb := newTestbed(t, DefaultConfig())
	// (3,0) is on the block 0/1 border: BCH. (1,1) is interior: ICH.
	if !tb.scheme.IsBorder(vcgrid.VC{CX: 3, CY: 0}) {
		t.Fatal("(3,0) should be a BCH")
	}
	if tb.scheme.IsBorder(vcgrid.VC{CX: 1, CY: 1}) {
		t.Fatal("(1,1) should be an ICH")
	}
}

// runBeaconRounds advances the simulation through n beacon periods.
func (tb *testbed) runBeaconRounds(n int, cfg Config) {
	for i := 0; i < n; i++ {
		tb.bb.BeaconRound()
		tb.sim.RunUntil(tb.sim.Now() + cfg.BeaconPeriod)
	}
}

// TestFigure4Convergence: after k beacon rounds every CH knows a route
// to exactly the CHs within k logical hops.
func TestFigure4Convergence(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RouteTTL = 100 // no expiry during the test
	tb := newTestbed(t, cfg)
	tb.runBeaconRounds(cfg.K+1, cfg)

	slot := tb.slotOfLabel("1000")
	reach := tb.bb.LogicalReach(slot, cfg.K)
	if len(reach) == 0 {
		t.Fatal("ground-truth reach empty")
	}
	for dest, d := range reach {
		routes := tb.bb.Routes(slot, dest)
		if len(routes) == 0 {
			t.Fatalf("no route to slot %d at logical distance %d", dest, d)
		}
		if routes[0].Hops != d {
			t.Errorf("best route to %d has %d hops want %d", dest, routes[0].Hops, d)
		}
	}
	if known := tb.bb.KnownDestinations(slot); known < len(reach) {
		t.Fatalf("converged table knows %d dests want >= %d", known, len(reach))
	}
}

// TestSection41TwoHopExample: the paper lists 1000 -> 1001 -> 1100 as a
// 2-logical-hop route. After convergence, slot 1100 must be reachable
// both directly (1 hop) and via 1001 (2 hops) — multiple candidate
// routes per destination.
func TestSection41TwoHopExample(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RouteTTL = 100
	tb := newTestbed(t, cfg)
	tb.runBeaconRounds(3, cfg)

	src := tb.slotOfLabel("1000")
	dst := tb.slotOfLabel("1100")
	routes := tb.bb.Routes(src, dst)
	if len(routes) < 2 {
		t.Fatalf("want multiple routes to 1100, got %d", len(routes))
	}
	if routes[0].Hops != 1 {
		t.Fatalf("best route %d hops want 1", routes[0].Hops)
	}
	foundVia1001 := false
	for _, r := range routes {
		if r.NextHop == tb.slotOfLabel("1001") && r.Hops == 2 {
			foundVia1001 = true
		}
	}
	if !foundVia1001 {
		t.Fatal("missing the paper's 2-hop route 1000 -> 1001 -> 1100")
	}
}

func TestRoutesCarryQoSAnnotations(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RouteTTL = 100
	tb := newTestbed(t, cfg)
	tb.runBeaconRounds(3, cfg)
	src := tb.slotOfLabel("0000")
	dst := tb.slotOfLabel("0011")
	routes := tb.bb.Routes(src, dst)
	if len(routes) == 0 {
		t.Fatal("no routes")
	}
	for _, r := range routes {
		if r.Delay <= 0 {
			t.Fatalf("route delay %v should be positive (measured)", r.Delay)
		}
		if r.Bandwidth <= 0 {
			t.Fatalf("route bandwidth %v should be positive", r.Bandwidth)
		}
	}
}

func TestBestRouteQoSFiltering(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RouteTTL = 100
	tb := newTestbed(t, cfg)
	tb.runBeaconRounds(cfg.K+1, cfg)
	src := tb.slotOfLabel("0000")
	dst := tb.slotOfLabel("1111")
	if r := tb.bb.BestRoute(src, dst, 0, 0); r == nil {
		t.Fatal("unconstrained best route missing")
	}
	// Impossible bandwidth demand filters everything.
	if r := tb.bb.BestRoute(src, dst, 1e13, 0); r != nil {
		t.Fatalf("impossible QoS admitted: %+v", r)
	}
	// Impossible delay bound filters everything.
	if r := tb.bb.BestRoute(src, dst, 0, 1e-9); r != nil {
		t.Fatalf("impossible delay admitted: %+v", r)
	}
}

func TestRouteExpiry(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RouteTTL = 3
	tb := newTestbed(t, cfg)
	tb.runBeaconRounds(2, cfg)
	src := tb.slotOfLabel("0000")
	dst := tb.slotOfLabel("0001")
	if len(tb.bb.Routes(src, dst)) == 0 {
		t.Fatal("route should exist after beaconing")
	}
	// Let everything expire without further beacons.
	tb.sim.RunUntil(tb.sim.Now() + 10)
	if got := tb.bb.Routes(src, dst); len(got) != 0 {
		t.Fatalf("stale routes survived: %v", got)
	}
}

// TestAvailabilityAfterCHFailure: the paper's availability claim — when
// a route breaks, alternate routes are already in the table.
func TestAvailabilityAfterCHFailure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RouteTTL = 100
	tb := newTestbed(t, cfg)
	tb.runBeaconRounds(3, cfg)

	src := tb.slotOfLabel("0000")
	dst := tb.slotOfLabel("0011")
	via1 := tb.slotOfLabel("0001")
	routes := tb.bb.Routes(src, dst)
	if len(routes) < 2 {
		t.Fatalf("need multiple routes for the availability claim, got %d", len(routes))
	}
	// Kill the CH of the best route's next hop (0001 or 0010).
	tb.net.Node(tb.nodeAt[int(via1)]).Fail()
	tb.cm.Elect() // the VC loses its CH
	alive := 0
	for _, r := range tb.bb.Routes(src, dst) {
		if tb.bb.CHNodeOf(r.NextHop) != network.NoNode {
			alive++
		}
	}
	if alive == 0 {
		t.Fatal("no candidate route survived a single CH failure")
	}
}

func TestSendLogicalDelivers(t *testing.T) {
	cfg := DefaultConfig()
	tb := newTestbed(t, cfg)
	src := tb.slotOfLabel("0000")
	dst := tb.slotOfLabel("1100") // two cells away: multi-hop physical
	var got *network.Packet
	tb.bb.HandleInner("test-inner", func(n *network.Node, _ network.NodeID, pkt *network.Packet) {
		got = pkt
	})
	ok := tb.bb.SendLogical(src, dst, &network.Packet{
		Kind: "test-inner", Src: tb.bb.CHNodeOf(src), Dst: tb.bb.CHNodeOf(dst),
		Size: 64, UID: tb.net.NextUID(),
	})
	if !ok {
		t.Fatal("SendLogical refused")
	}
	tb.sim.Run()
	if got == nil {
		t.Fatal("inner packet not delivered")
	}
}

func TestSendLogicalToEmptySlotFails(t *testing.T) {
	grid := vcgrid.New(geom.RectWH(0, 0, 2000, 2000), 250)
	hole := grid.Index(vcgrid.VC{CX: 1, CY: 0})
	tb := newTestbed(t, DefaultConfig(), hole)
	if tb.bb.SendLogical(tb.slotOfLabel("0000"), logicalid.CHID(hole), &network.Packet{Kind: "x", Size: 1}) {
		t.Fatal("send to CH-less slot should fail")
	}
}

func TestBeaconTrafficIsControl(t *testing.T) {
	cfg := DefaultConfig()
	tb := newTestbed(t, cfg)
	tb.net.ResetTraffic()
	tb.bb.BeaconRound()
	tb.sim.RunUntil(tb.sim.Now() + 1)
	st := tb.net.Stats()
	if st.DataBytes != 0 {
		t.Fatalf("beacons counted as data: %d bytes", st.DataBytes)
	}
	if st.ControlBytes == 0 {
		t.Fatal("beacon traffic not accounted")
	}
	if tb.bb.Beacons() == 0 {
		t.Fatal("beacon counter not incremented")
	}
}

func TestStartStopTicker(t *testing.T) {
	cfg := DefaultConfig()
	tb := newTestbed(t, cfg)
	tb.bb.Start()
	tb.sim.RunUntil(5)
	tb.bb.Stop()
	if tb.bb.Beacons() == 0 {
		t.Fatal("ticker never beaconed")
	}
	// Converged at least partially by now.
	if tb.bb.KnownDestinations(tb.slotOfLabel("0000")) == 0 {
		t.Fatal("no routes learned under ticker operation")
	}
}

func TestLogicalReachGroundTruth(t *testing.T) {
	tb := newTestbed(t, DefaultConfig())
	slot := tb.slotOfLabel("0000")
	r1 := tb.bb.LogicalReach(slot, 1)
	if len(r1) != len(tb.bb.LogicalNeighbors(slot)) {
		t.Fatal("reach(1) should equal neighbor count")
	}
	r2 := tb.bb.LogicalReach(slot, 2)
	if len(r2) <= len(r1) {
		t.Fatal("reach(2) should strictly grow")
	}
	for s, d := range r1 {
		if d != 1 {
			t.Fatalf("slot %d at distance %d in reach(1)", s, d)
		}
	}
}

func TestSlotOfNode(t *testing.T) {
	tb := newTestbed(t, DefaultConfig())
	ch := tb.bb.CHNodeOf(0)
	if ch == network.NoNode {
		t.Fatal("slot 0 should have a CH")
	}
	if tb.bb.SlotOfNode(ch) != 0 {
		t.Fatalf("SlotOfNode(%d) = %d want 0", ch, tb.bb.SlotOfNode(ch))
	}
	// A non-CH node maps to -1. All testbed nodes are CHs (one per VC),
	// so check a failed one.
	tb.net.Node(ch).Fail()
	tb.cm.Elect()
	if tb.bb.SlotOfNode(ch) != -1 {
		t.Fatal("failed node should not map to a slot")
	}
}

// TestRouteTableUpdateRule pins the Figure 4 table's merge rule: a
// route from a known next hop refreshes that entry, a new next hop is
// sorted in while a destination holds fewer than three, and a full
// destination admits only a route strictly better than its worst by
// (hops, delay), equal keys keeping their order. Destinations stay in
// ascending order, and reading a table never creates one.
func TestRouteTableUpdateRule(t *testing.T) {
	var tab routeTable
	put := func(dest logicalid.CHID, nextHop, hops int32, delay float64) {
		tab.update(dest, tableRoute{nextHop: nextHop, hops: hops, delay: delay, expires: 1})
	}
	order := func(dest logicalid.CHID) []int32 {
		i, ok := tab.find(dest)
		if !ok {
			t.Fatalf("destination %d missing", dest)
		}
		var hops []int32
		for _, r := range tab[i].routes[:tab[i].n] {
			hops = append(hops, r.nextHop)
		}
		return hops
	}
	check := func(step string, dest logicalid.CHID, want ...int32) {
		t.Helper()
		if got := order(dest); !slices.Equal(got, want) {
			t.Fatalf("%s: next hops to %d = %v want %v", step, dest, got, want)
		}
	}

	put(5, 1, 2, 0.10)
	put(5, 2, 1, 0.20)
	put(5, 3, 2, 0.05)
	check("insert below three", 5, 2, 3, 1)
	put(5, 1, 1, 0.01)
	check("refresh by next hop", 5, 1, 2, 3)
	put(5, 1, 3, 0.50)
	check("refresh to worse", 5, 2, 3, 1)
	put(5, 4, 3, 0.50)
	check("tie with the worst is rejected", 5, 2, 3, 1)
	put(5, 5, 4, 0)
	check("worse than the worst is rejected", 5, 2, 3, 1)
	put(5, 6, 3, 0.40)
	check("strictly better displaces the worst", 5, 2, 3, 6)
	put(5, 7, 1, 0.01)
	check("a new best displaces the worst", 5, 7, 2, 3)

	put(9, 1, 2, 0.10)
	put(9, 2, 2, 0.10)
	put(9, 3, 2, 0.10)
	check("equal keys keep arrival order", 9, 1, 2, 3)
	put(9, 2, 2, 0.10)
	check("an equal refresh stays put", 9, 1, 2, 3)
	put(9, 1, 2, 0.30)
	check("a worse refresh moves behind its equals", 9, 2, 3, 1)
	put(9, 4, 2, 0.10)
	check("an admitted tie goes behind its equals", 9, 2, 3, 4)

	put(7, 1, 1, 0)
	put(3, 1, 1, 0)
	put(11, 1, 1, 0)
	var dests []int32
	for _, d := range tab {
		dests = append(dests, d.dest)
	}
	if want := []int32{3, 5, 7, 9, 11}; !slices.Equal(dests, want) {
		t.Fatalf("destinations %v want ascending %v", dests, want)
	}

	tb := newTestbed(t, DefaultConfig())
	slots := logicalid.CHID(len(tb.bb.tables))
	for _, q := range [][2]logicalid.CHID{{0, 1}, {0, 0}, {slots - 1, 5}, {-1, 0}, {slots, 0}} {
		if r := tb.bb.Routes(q[0], q[1]); r != nil {
			t.Fatalf("Routes(%d, %d) on an empty backbone = %v", q[0], q[1], r)
		}
		if n := tb.bb.KnownDestinations(q[0]); n != 0 {
			t.Fatalf("KnownDestinations(%d) on an empty backbone = %d", q[0], n)
		}
	}
	for slot, tab := range tb.bb.tables {
		if tab != nil {
			t.Fatalf("reading created slot %d's table (%d destinations)", slot, len(tab))
		}
	}
}
