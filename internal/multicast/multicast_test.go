package multicast

import (
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/geom"
	"repro/internal/logicalid"
	"repro/internal/membership"
	"repro/internal/mobility"
	"repro/internal/network"
	"repro/internal/radio"
	"repro/internal/vcgrid"
	"repro/internal/xrand"
)

// testbed: the Figure 2 configuration (8x8 VCs, four 4-D hypercubes)
// with a CH at every VCC; members added per test, then prepare() runs
// the membership plane to convergence.
type testbed struct {
	sim    *des.Simulator
	net    *network.Network
	cm     *cluster.Manager
	scheme *logicalid.Scheme
	grid   *vcgrid.Grid
	bb     *core.Backbone
	ms     *membership.Service
	mc     *Service
	mux    *network.Mux

	members []*network.Node
	// delivered lists each uid's member deliveries in order, as the
	// service's delivery observer reports them.
	delivered map[uint64][]network.NodeID
}

func newTestbed(t *testing.T, cfg Config) *testbed {
	t.Helper()
	tb := &testbed{}
	tb.sim = des.New()
	arena := geom.RectWH(0, 0, 2000, 2000)
	tb.net = network.New(tb.sim, arena, xrand.New(21))
	tb.grid = vcgrid.New(arena, 250)
	for i := 0; i < tb.grid.Count(); i++ {
		tb.net.AddNode(&mobility.Static{P: tb.grid.Center(tb.grid.FromIndex(i))}, radio.DefaultCH, nil, true)
	}
	var err error
	tb.scheme, err = logicalid.New(tb.grid, 4)
	if err != nil {
		t.Fatal(err)
	}
	tb.cfgStack(cfg)
	return tb
}

func (tb *testbed) cfgStack(cfg Config) {
	tb.mux = network.Bind(tb.net)
	tb.cm = cluster.NewManager(tb.net, tb.grid, cluster.DefaultConfig())
	bcfg := core.DefaultConfig()
	bcfg.RouteTTL = 1000
	tb.bb = core.New(tb.net, tb.mux, tb.cm, tb.scheme, bcfg)
	mcfg := membership.DefaultConfig()
	mcfg.LocalTTL = 0 // report freshness is exercised in package membership
	tb.ms = membership.New(tb.bb, mcfg)
	tb.mc = New(tb.bb, tb.ms, tb.mux, cfg)
	tb.delivered = make(map[uint64][]network.NodeID)
	tb.mc.OnDeliver(func(m network.NodeID, uid uint64, _ des.Time, _ int) {
		tb.delivered[uid] = append(tb.delivered[uid], m)
	})
	tb.cm.Elect()
}

// deliveredTo reports whether the observer saw uid delivered to member.
func (tb *testbed) deliveredTo(uid uint64, member network.NodeID) bool {
	return slices.Contains(tb.delivered[uid], member)
}

func (tb *testbed) addMember(vcIdx int, dx, dy float64) *network.Node {
	c := tb.grid.Center(tb.grid.FromIndex(vcIdx))
	n := tb.net.AddNode(&mobility.Static{P: geom.Pt(c.X+dx, c.Y+dy)}, radio.DefaultMN, nil, false)
	n.SetHandler(tb.mux.Dispatch)
	tb.members = append(tb.members, n)
	return n
}

// prepare runs membership to convergence after joins.
func (tb *testbed) prepare() {
	tb.cm.Elect()
	tb.ms.LocalRound()
	tb.sim.RunUntil(tb.sim.Now() + 2)
	tb.ms.MNTRound()
	tb.sim.RunUntil(tb.sim.Now() + 5)
	tb.ms.HTRound()
	tb.sim.RunUntil(tb.sim.Now() + 10)
	// Refresh local reports so LocalTTL does not expire them during the
	// data phase.
	tb.ms.LocalRound()
	tb.sim.RunUntil(tb.sim.Now() + 2)
}

func (tb *testbed) drain() { tb.sim.RunUntil(tb.sim.Now() + 5) }

func TestSingleCubeDelivery(t *testing.T) {
	tb := newTestbed(t, DefaultConfig())
	a := tb.addMember(0, 30, 0)   // VC (0,0)
	b := tb.addMember(18, 30, 0)  // VC (2,2), same cube 0
	src := tb.addMember(9, 20, 0) // VC (1,1), cube 0
	tb.ms.Join(a.ID, 5)
	tb.ms.Join(b.ID, 5)
	tb.prepare()
	uid := tb.mc.Send(src.ID, 5, 512)
	if uid == 0 {
		t.Fatal("send failed")
	}
	tb.drain()
	if !tb.deliveredTo(uid, a.ID) || !tb.deliveredTo(uid, b.ID) {
		t.Fatalf("delivery incomplete: a=%v b=%v", tb.deliveredTo(uid, a.ID), tb.deliveredTo(uid, b.ID))
	}
	if len(tb.delivered[uid]) != 2 {
		t.Fatalf("delivered to %d nodes want 2", len(tb.delivered[uid]))
	}
}

func TestCrossCubeDelivery(t *testing.T) {
	tb := newTestbed(t, DefaultConfig())
	// Members in three different hypercubes, source in the fourth.
	a := tb.addMember(tb.grid.Index(vcgrid.VC{CX: 1, CY: 1}), 30, 0)  // cube 0
	b := tb.addMember(tb.grid.Index(vcgrid.VC{CX: 6, CY: 1}), 30, 0)  // cube 1
	c := tb.addMember(tb.grid.Index(vcgrid.VC{CX: 1, CY: 6}), 30, 0)  // cube 2
	src := tb.addMember(tb.grid.Index(vcgrid.VC{CX: 6, CY: 6}), 0, 0) // cube 3
	for _, m := range []*network.Node{a, b, c} {
		tb.ms.Join(m.ID, 9)
	}
	tb.prepare()
	uid := tb.mc.Send(src.ID, 9, 1024)
	tb.drain()
	for i, m := range []*network.Node{a, b, c} {
		if !tb.deliveredTo(uid, m.ID) {
			t.Fatalf("member %d in another cube not reached", i)
		}
	}
}

func TestSourceIsCH(t *testing.T) {
	tb := newTestbed(t, DefaultConfig())
	a := tb.addMember(18, 30, 0)
	tb.ms.Join(a.ID, 5)
	tb.prepare()
	// Send from the CH node of VC (0,0) directly.
	ch := tb.cm.CHOf(vcgrid.VC{CX: 0, CY: 0})
	uid := tb.mc.Send(ch, 5, 256)
	tb.drain()
	if !tb.deliveredTo(uid, a.ID) {
		t.Fatal("CH-originated multicast not delivered")
	}
}

func TestCHMemberDeliveredWithoutRadio(t *testing.T) {
	tb := newTestbed(t, DefaultConfig())
	// The CH of VC (2,2) itself joins the group.
	ch := tb.cm.CHOf(vcgrid.VC{CX: 2, CY: 2})
	tb.ms.Join(ch, 5)
	src := tb.addMember(0, 30, 0)
	tb.prepare()
	uid := tb.mc.Send(src.ID, 5, 128)
	tb.drain()
	if !tb.deliveredTo(uid, ch) {
		t.Fatal("CH member not delivered")
	}
	// No local broadcast should have been needed for a CH-only member.
	if got := tb.net.Stats().KindTx[LocalKind]; got != 0 {
		t.Fatalf("unnecessary local broadcasts: %d", got)
	}
}

func TestNonMembersDoNotReceive(t *testing.T) {
	tb := newTestbed(t, DefaultConfig())
	member := tb.addMember(0, 30, 0)
	bystander := tb.addMember(0, -30, 0) // same cluster, not joined
	src := tb.addMember(18, 0, 0)
	tb.ms.Join(member.ID, 5)
	tb.prepare()
	uid := tb.mc.Send(src.ID, 5, 100)
	tb.drain()
	if tb.deliveredTo(uid, bystander.ID) {
		t.Fatal("non-member received delivery")
	}
	if !tb.deliveredTo(uid, member.ID) {
		t.Fatal("member missed delivery")
	}
}

func TestDuplicateSuppression(t *testing.T) {
	tb := newTestbed(t, DefaultConfig())
	a := tb.addMember(0, 30, 0)
	src := tb.addMember(9, 20, 0)
	tb.ms.Join(a.ID, 5)
	tb.prepare()
	uid := tb.mc.Send(src.ID, 5, 64)
	tb.drain()
	if got := len(tb.delivered[uid]); got != 1 {
		t.Fatalf("delivery count %d want 1 (dedup)", got)
	}
	if tb.mc.Delivered != 1 {
		t.Fatalf("Delivered counter %d want 1", tb.mc.Delivered)
	}
}

func TestTreeCaching(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CacheTTL = 1000
	tb := newTestbed(t, cfg)
	a := tb.addMember(tb.grid.Index(vcgrid.VC{CX: 6, CY: 6}), 30, 0)
	src := tb.addMember(0, 30, 0)
	tb.ms.Join(a.ID, 5)
	tb.prepare()
	tb.mc.Send(src.ID, 5, 64)
	tb.drain()
	computesAfterFirst := tb.mc.TreeComputes
	tb.mc.Send(src.ID, 5, 64)
	tb.drain()
	if tb.mc.TreeComputes != computesAfterFirst {
		t.Fatalf("second send recomputed trees: %d -> %d", computesAfterFirst, tb.mc.TreeComputes)
	}
	if tb.mc.TreeCacheHits == 0 {
		t.Fatal("no cache hits recorded")
	}
}

func TestCacheExpires(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CacheTTL = 1
	tb := newTestbed(t, cfg)
	a := tb.addMember(18, 30, 0)
	src := tb.addMember(0, 30, 0)
	tb.ms.Join(a.ID, 5)
	tb.prepare()
	tb.mc.Send(src.ID, 5, 64)
	tb.drain() // advances > CacheTTL
	before := tb.mc.TreeComputes
	tb.mc.Send(src.ID, 5, 64)
	tb.drain()
	if tb.mc.TreeComputes == before {
		t.Fatal("expired cache entry was reused")
	}
}

func TestDeliveryCallbackMetrics(t *testing.T) {
	tb := newTestbed(t, DefaultConfig())
	a := tb.addMember(tb.grid.Index(vcgrid.VC{CX: 7, CY: 7}), 30, 0)
	src := tb.addMember(0, 30, 0)
	tb.ms.Join(a.ID, 5)
	tb.prepare()
	var gotMember network.NodeID = network.NoNode
	var gotHops int
	var gotBorn des.Time
	tb.mc.OnDeliver(func(member network.NodeID, uid uint64, born des.Time, hops int) {
		gotMember, gotBorn, gotHops = member, born, hops
	})
	sendTime := tb.sim.Now()
	tb.mc.Send(src.ID, 5, 64)
	tb.drain()
	if gotMember != a.ID {
		t.Fatalf("callback member %d want %d", gotMember, a.ID)
	}
	if gotBorn != sendTime {
		t.Fatalf("born %v want %v", gotBorn, sendTime)
	}
	// Source VC (0,0) to member VC (7,7): at least one inter-cube hop
	// plus intra-cube hops.
	if gotHops < 2 {
		t.Fatalf("logical hops %d suspiciously few", gotHops)
	}
}

func TestQoSGateBlocksImpossibleDemand(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MinBandwidth = 1e13 // beyond any link
	tb := newTestbed(t, cfg)
	// Member two logical hops from the source CH inside one cube, so
	// the gated intra-cube forward is mandatory.
	a := tb.addMember(18, 30, 0) // (2,2) label...
	src := tb.addMember(0, 30, 0)
	tb.ms.Join(a.ID, 5)
	tb.prepare()
	// No route maintenance ran, and even with it no route passes the
	// gate, so intra-cube forwarding is blocked.
	uid := tb.mc.Send(src.ID, 5, 64)
	tb.drain()
	if tb.deliveredTo(uid, a.ID) {
		t.Fatal("QoS gate failed to block impossible demand")
	}
	if tb.mc.QoSBlocked == 0 {
		t.Fatal("blocked tree edge not counted")
	}
}

func TestQoSGatePassesWithRoutes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MinBandwidth = 1000 // trivially satisfiable
	tb := newTestbed(t, cfg)
	a := tb.addMember(18, 30, 0)
	src := tb.addMember(0, 30, 0)
	tb.ms.Join(a.ID, 5)
	tb.prepare()
	// Run Figure 4 maintenance so routes with QoS annotations exist.
	for i := 0; i < 5; i++ {
		tb.bb.BeaconRound()
		tb.sim.RunUntil(tb.sim.Now() + 2)
	}
	uid := tb.mc.Send(src.ID, 5, 64)
	tb.drain()
	if !tb.deliveredTo(uid, a.ID) {
		t.Fatal("QoS gate blocked a satisfiable demand")
	}
	if tb.mc.QoSBlocked != 0 {
		t.Fatalf("QoSBlocked %d on a satisfiable demand", tb.mc.QoSBlocked)
	}
}

func TestDataAccountedAsData(t *testing.T) {
	tb := newTestbed(t, DefaultConfig())
	a := tb.addMember(18, 30, 0)
	src := tb.addMember(0, 30, 0)
	tb.ms.Join(a.ID, 5)
	tb.prepare()
	tb.net.ResetTraffic()
	tb.mc.Send(src.ID, 5, 512)
	tb.drain()
	st := tb.net.Stats()
	if st.DataBytes == 0 {
		t.Fatal("multicast payload not accounted as data")
	}
}

func TestSendFromDownNodeFails(t *testing.T) {
	tb := newTestbed(t, DefaultConfig())
	src := tb.addMember(0, 30, 0)
	tb.prepare()
	src.Fail()
	if uid := tb.mc.Send(src.ID, 5, 64); uid != 0 {
		t.Fatal("send from down node should fail")
	}
}

func TestDeliveryAfterEntryCHFailure(t *testing.T) {
	// Availability: kill one CH on the path after trees were cached;
	// a fresh send must still reach members via recomputed trees once
	// the cache expires.
	cfg := DefaultConfig()
	cfg.CacheTTL = 0.5
	tb := newTestbed(t, cfg)
	a := tb.addMember(18, 30, 0) // (2,2) cube 0
	src := tb.addMember(0, 30, 0)
	tb.ms.Join(a.ID, 5)
	tb.prepare()
	uid := tb.mc.Send(src.ID, 5, 64)
	tb.drain()
	if !tb.deliveredTo(uid, a.ID) {
		t.Fatal("baseline delivery failed")
	}
	// Kill an intermediate CH: (1,1) = the diagonal stepping stone.
	tb.net.Node(tb.cm.CHOf(vcgrid.VC{CX: 1, CY: 1})).Fail()
	tb.cm.Elect()
	uid2 := tb.mc.Send(src.ID, 5, 64)
	tb.drain()
	if !tb.deliveredTo(uid2, a.ID) {
		t.Fatal("delivery not restored around failed CH")
	}
}

// TestSendFailureLeavesNoFlight: a send that cannot reach its CH
// returns no uid and does not count as sent.
func TestSendFailureLeavesNoFlight(t *testing.T) {
	tb := newTestbed(t, DefaultConfig())
	// Out of every CH's radio range.
	far := tb.net.AddNode(&mobility.Static{P: geom.Pt(9000, 9000)}, radio.DefaultMN, nil, false)
	far.SetHandler(tb.mux.Dispatch)
	tb.prepare()
	// The node's position maps to a headed VC, so Send gets past the
	// CH lookup and fails at the geo-routed hop to that CH.
	if tb.cm.CHOf(tb.grid.VCOf(far.Fix().Pos)) == network.NoNode {
		t.Fatal("the isolated node's VC has no CH: the send would fail before the geo hop")
	}
	sent := tb.mc.Sent
	if uid := tb.mc.Send(far.ID, 5, 64); uid != 0 {
		t.Fatalf("send from an isolated node returned uid %d", uid)
	}
	if tb.mc.Sent != sent {
		t.Fatalf("Sent went from %d to %d on a send that did not start", sent, tb.mc.Sent)
	}
}

// TestNoEntryCHCounted: a send whose reused mesh-tier tree leads into
// a hypercube that lost every CH since the tree was computed dies at
// Figure 6 step 3, and is counted there.
func TestNoEntryCHCounted(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CacheTTL = 100 // the second send reuses the first send's trees
	tb := newTestbed(t, cfg)
	vc := vcgrid.VC{CX: 6, CY: 1}
	a := tb.addMember(tb.grid.Index(vc), 30, 0)
	src := tb.addMember(tb.grid.Index(vcgrid.VC{CX: 1, CY: 1}), 30, 0)
	tb.ms.Join(a.ID, 9)
	tb.prepare()
	first := tb.mc.Send(src.ID, 9, 64)
	tb.drain()
	if !tb.deliveredTo(first, a.ID) || tb.mc.NoEntryCH != 0 {
		t.Fatalf("first send: delivered=%v NoEntryCH=%d", tb.deliveredTo(first, a.ID), tb.mc.NoEntryCH)
	}
	hid := tb.scheme.CHIDToPlace(logicalid.CHID(tb.grid.Index(vc))).HID
	for _, v := range tb.scheme.BlockVCs(hid) {
		tb.net.Node(tb.cm.CHOf(v)).Fail()
	}
	tb.cm.Elect()
	uid := tb.mc.Send(src.ID, 9, 64)
	tb.drain()
	if tb.deliveredTo(uid, a.ID) {
		t.Fatal("delivered into a hypercube without CHs")
	}
	if tb.mc.NoEntryCH != 1 {
		t.Fatalf("NoEntryCH %d want 1", tb.mc.NoEntryCH)
	}
}

// TestSendAllocationsIndependentOfCubes: a send's per-cube headers come
// from one backing slice, so a send into all four hypercubes allocates
// no more than one into a single foreign cube. Trees are cached and
// pools warm, and the testbed's allocating observer is detached, so what
// is left is the send's own records.
func TestSendAllocationsIndependentOfCubes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CacheTTL = 1e6 // every measured send reuses the warm-up's trees
	tb := newTestbed(t, cfg)
	at := func(cx, cy int) *network.Node {
		return tb.addMember(tb.grid.Index(vcgrid.VC{CX: cx, CY: cy}), 30, 0)
	}
	// Source in cube 3; every member sits off its cube's entry slot, so
	// each entered cube forwards inside under a header of its own.
	src := at(6, 6)
	one, all := membership.Group(1), membership.Group(2)
	tb.ms.Join(at(1, 1).ID, one)
	for _, m := range []*network.Node{at(1, 2), at(5, 1), at(1, 6), at(4, 4)} {
		tb.ms.Join(m.ID, all)
	}
	tb.prepare()
	tb.mc.onDeliver = nil
	allocs := func(g membership.Group, members uint64) float64 {
		return testing.AllocsPerRun(10, func() {
			before := tb.mc.Delivered
			if tb.mc.Send(src.ID, g, 64) == 0 {
				t.Fatal("send failed")
			}
			tb.drain()
			if got := tb.mc.Delivered - before; got != members {
				t.Fatalf("group %d: delivered %d want %d", g, got, members)
			}
		})
	}
	single, four := allocs(one, 1), allocs(all, 4)
	if four > single {
		t.Fatalf("a send into four hypercubes allocates %v times, one into a single foreign cube %v", four, single)
	}
}
