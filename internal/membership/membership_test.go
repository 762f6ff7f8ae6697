package membership

import (
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/geom"
	"repro/internal/logicalid"
	"repro/internal/mobility"
	"repro/internal/network"
	"repro/internal/radio"
	"repro/internal/vcgrid"
	"repro/internal/xrand"
)

// testbed: 8x8 VC grid, four 4-D hypercubes, a CH-capable node at every
// VCC, plus ordinary member nodes added by addMember.
type testbed struct {
	sim    *des.Simulator
	net    *network.Network
	cm     *cluster.Manager
	scheme *logicalid.Scheme
	bb     *core.Backbone
	ms     *Service
	grid   *vcgrid.Grid
}

func newTestbed(t testing.TB, cfg Config) *testbed {
	t.Helper()
	tb := &testbed{}
	tb.sim = des.New()
	arena := geom.RectWH(0, 0, 2000, 2000)
	tb.net = network.New(tb.sim, arena, xrand.New(11))
	tb.grid = vcgrid.New(arena, 250)
	for i := 0; i < tb.grid.Count(); i++ {
		tb.net.AddNode(&mobility.Static{P: tb.grid.Center(tb.grid.FromIndex(i))}, radio.DefaultCH, nil, true)
	}
	mux := network.Bind(tb.net)
	tb.cm = cluster.NewManager(tb.net, tb.grid, cluster.DefaultConfig())
	var err error
	tb.scheme, err = logicalid.New(tb.grid, 4)
	if err != nil {
		t.Fatal(err)
	}
	bcfg := core.DefaultConfig()
	bcfg.RouteTTL = 1000
	tb.bb = core.New(tb.net, mux, tb.cm, tb.scheme, bcfg)
	tb.ms = New(tb.bb, cfg)
	tb.cm.Elect()
	// Re-bind late so member nodes added after Bind still get handlers:
	// tests call rebind after adding members.
	return tb
}

// addMember drops an ordinary (non-CH-capable) node into the given VC,
// offset slightly from the VCC.
func (tb *testbed) addMember(vcIdx int, dx, dy float64) *network.Node {
	c := tb.grid.Center(tb.grid.FromIndex(vcIdx))
	n := tb.net.AddNode(&mobility.Static{P: geom.Pt(c.X+dx, c.Y+dy)}, radio.DefaultMN, nil, false)
	return n
}

func (tb *testbed) rebind() {
	mux := network.Bind(tb.net)
	// Re-attach protocol layers to the fresh mux.
	bcfg := core.DefaultConfig()
	bcfg.RouteTTL = 1000
	tb.bb = core.New(tb.net, mux, tb.cm, tb.scheme, bcfg)
	cfg := tb.ms.cfg
	tb.ms = New(tb.bb, cfg)
	tb.cm.Elect()
}

// drain runs the simulator until pending deliveries settle.
func (tb *testbed) drain() {
	tb.sim.RunUntil(tb.sim.Now() + 2)
}

func slotIdx(tb *testbed, cx, cy int) logicalid.CHID {
	return logicalid.CHID(tb.grid.Index(vcgrid.VC{CX: cx, CY: cy}))
}

func TestJoinLeaveGroupsOf(t *testing.T) {
	tb := newTestbed(t, DefaultConfig())
	tb.ms.Join(3, 7)
	tb.ms.Join(3, 9)
	tb.ms.Join(3, 7) // idempotent
	gs := tb.ms.GroupsOf(3)
	if len(gs) != 2 || gs[0] != 7 || gs[1] != 9 {
		t.Fatalf("groups %v", gs)
	}
	tb.ms.Leave(3, 7)
	if gs := tb.ms.GroupsOf(3); len(gs) != 1 || gs[0] != 9 {
		t.Fatalf("after leave %v", gs)
	}
	// GroupsOf hands out a copy: writing to it changes no membership.
	tb.ms.GroupsOf(3)[0] = 4
	if !tb.ms.IsMember(3, 9) || tb.ms.IsMember(3, 4) {
		t.Fatalf("writing GroupsOf's result changed membership: %v", tb.ms.GroupsOf(3))
	}
}

func TestIsMember(t *testing.T) {
	tb := newTestbed(t, DefaultConfig())
	tb.ms.Join(3, 7)
	tb.ms.Join(3, 9)
	tb.ms.Leave(3, 9)
	for _, tc := range []struct {
		name string
		id   network.NodeID
		g    Group
		want bool
	}{
		{"joined", 3, 7, true},
		{"left", 3, 9, false},
		{"unknown group", 3, 8, false},
		{"unknown node", 4, 7, false},
		{"no node", network.NoNode, 7, false},
	} {
		if got := tb.ms.IsMember(tc.id, tc.g); got != tc.want {
			t.Errorf("%s: IsMember(%d, %d) = %v want %v", tc.name, tc.id, tc.g, got, tc.want)
		}
	}
	if gs := tb.ms.GroupsOf(4); len(gs) != 0 {
		t.Errorf("GroupsOf an unknown node = %v", gs)
	}
	// The data plane asks once per listener of every local broadcast.
	if n := testing.AllocsPerRun(100, func() { tb.ms.IsMember(3, 7); tb.ms.IsMember(4, 7) }); n != 0 {
		t.Errorf("IsMember allocates %v per call pair", n)
	}
}

func TestLocalRoundBuildsMNTSummary(t *testing.T) {
	tb := newTestbed(t, DefaultConfig())
	m1 := tb.addMember(0, 30, 0)
	m2 := tb.addMember(0, -30, 10)
	tb.rebind()
	tb.ms.Join(m1.ID, 5)
	tb.ms.Join(m2.ID, 5)
	tb.ms.Join(m2.ID, 6)
	tb.ms.LocalRound()
	tb.drain()
	want := []GroupCount{{5, 2}, {6, 1}}
	if sum := tb.ms.MNTSummary(slotIdx(tb, 0, 0)); !slices.Equal(sum, want) {
		t.Fatalf("MNT summary %v want %v", sum, want)
	}
	// The CH keeps each report's group slice: a Join or Leave after the
	// round must not reach its view before the next report does.
	tb.ms.Leave(m2.ID, 5)
	tb.ms.Join(m1.ID, 4)
	if sum := tb.ms.MNTSummary(slotIdx(tb, 0, 0)); !slices.Equal(sum, want) {
		t.Fatalf("MNT summary %v before the next round, want %v", sum, want)
	}
	tb.ms.LocalRound()
	tb.drain()
	if sum, next := tb.ms.MNTSummary(slotIdx(tb, 0, 0)), []GroupCount{{4, 1}, {5, 1}, {6, 1}}; !slices.Equal(sum, next) {
		t.Fatalf("MNT summary %v after the next round, want %v", sum, next)
	}
	tb.ms.Leave(m1.ID, 4)
	tb.ms.Join(m2.ID, 5)
	tb.ms.LocalRound()
	tb.drain()
	members := tb.ms.AppendLocalMembers(nil, slotIdx(tb, 0, 0), 5)
	if len(members) != 2 {
		t.Fatalf("local members %v", members)
	}
	// The append form keeps what dst holds and adds the same sorted list.
	got := tb.ms.AppendLocalMembers([]network.NodeID{99}, slotIdx(tb, 0, 0), 5)
	if want := []network.NodeID{99, m1.ID, m2.ID}; !slices.Equal(got, want) {
		t.Fatalf("AppendLocalMembers = %v want %v", got, want)
	}
}

func TestCHSelfMembershipNeedsNoRadio(t *testing.T) {
	tb := newTestbed(t, DefaultConfig())
	ch := tb.cm.CHOf(vcgrid.VC{CX: 2, CY: 2})
	tb.ms.Join(ch, 4)
	tb.net.ResetTraffic()
	tb.ms.LocalRound()
	tb.drain()
	if got := tb.net.Stats().KindTx[LocalKind]; got != 0 {
		t.Fatalf("CH self-report transmitted %d packets", got)
	}
	if sum := tb.ms.MNTSummary(slotIdx(tb, 2, 2)); countOf(sum, 4) != 1 {
		t.Fatalf("self membership missing: %v", sum)
	}
}

func TestLeavePropagatesOnNextRound(t *testing.T) {
	tb := newTestbed(t, DefaultConfig())
	m := tb.addMember(0, 30, 0)
	tb.rebind()
	tb.ms.Join(m.ID, 5)
	tb.ms.LocalRound()
	tb.drain()
	if countOf(tb.ms.MNTSummary(slotIdx(tb, 0, 0)), 5) != 1 {
		t.Fatal("join not recorded")
	}
	tb.ms.Leave(m.ID, 5)
	tb.ms.LocalRound()
	tb.drain()
	if got := countOf(tb.ms.MNTSummary(slotIdx(tb, 0, 0)), 5); got != 0 {
		t.Fatalf("leave not propagated: count %d", got)
	}
}

func TestMNTFloodStaysInsideHypercube(t *testing.T) {
	tb := newTestbed(t, DefaultConfig())
	m := tb.addMember(0, 30, 0) // VC (0,0), hypercube 0
	tb.rebind()
	tb.ms.Join(m.ID, 5)
	tb.ms.LocalRound()
	tb.drain()
	tb.ms.MNTRound()
	tb.sim.RunUntil(tb.sim.Now() + 5)
	// Every CH of hypercube 0 sees the group in its HT summary.
	for _, vc := range tb.scheme.BlockVCs(0) {
		slot := logicalid.CHID(tb.grid.Index(vc))
		if countOf(tb.ms.HTSummary(slot), 5) != 1 {
			t.Fatalf("slot %d (cube 0) missing group in HT summary", slot)
		}
	}
	// A CH of hypercube 3 must not have absorbed the MNT flood.
	farSlot := slotIdx(tb, 7, 7)
	if got := countOf(tb.ms.HTSummary(farSlot), 5); got != 0 {
		t.Fatalf("MNT flood leaked to another hypercube: count %d", got)
	}
}

func TestExactlyOneDesignatedBroadcasterPerCube(t *testing.T) {
	tb := newTestbed(t, DefaultConfig())
	m := tb.addMember(0, 30, 0)
	m2 := tb.addMember(9, 20, 0) // VC (1,1), same cube
	tb.rebind()
	tb.ms.Join(m.ID, 5)
	tb.ms.Join(m2.ID, 5)
	tb.ms.LocalRound()
	tb.drain()
	tb.ms.MNTRound()
	tb.sim.RunUntil(tb.sim.Now() + 5)
	designated := 0
	for _, vc := range tb.scheme.BlockVCs(0) {
		if tb.ms.Designated(logicalid.CHID(tb.grid.Index(vc))) {
			designated++
		}
	}
	if designated != 1 {
		t.Fatalf("%d designated broadcasters in cube 0 want exactly 1", designated)
	}
}

func TestHTBroadcastReachesWholeNetwork(t *testing.T) {
	tb := newTestbed(t, DefaultConfig())
	m := tb.addMember(0, 30, 0) // group member in hypercube 0
	tb.rebind()
	tb.ms.Join(m.ID, 5)
	tb.ms.LocalRound()
	tb.drain()
	tb.ms.MNTRound()
	tb.sim.RunUntil(tb.sim.Now() + 5)
	tb.ms.HTRound()
	tb.sim.RunUntil(tb.sim.Now() + 10)
	// Every CH in the network should now attribute group 5 to cube 0.
	for i := 0; i < tb.grid.Count(); i++ {
		if hids := tb.ms.MTSummaryHIDs(logicalid.CHID(i), 5); !slices.Equal(hids, []logicalid.HID{0}) {
			t.Fatalf("slot %d sees group 5 in cubes %v want [0]", i, hids)
		}
	}
	if tb.ms.HTBroadcasts == 0 {
		t.Fatal("no HT broadcast counted")
	}
}

func TestCubeMembers(t *testing.T) {
	tb := newTestbed(t, DefaultConfig())
	mA := tb.addMember(0, 30, 0) // VC (0,0) cube 0
	mB := tb.addMember(9, 20, 0) // VC (1,1) cube 0
	mC := tb.addMember(4, 20, 0) // VC (4,0) cube 1
	tb.rebind()
	for _, m := range []*network.Node{mA, mB, mC} {
		tb.ms.Join(m.ID, 5)
	}
	tb.ms.LocalRound()
	tb.drain()
	tb.ms.MNTRound()
	tb.sim.RunUntil(tb.sim.Now() + 5)
	got := tb.ms.CubeMembers(slotIdx(tb, 0, 0), 5)
	if len(got) != 2 {
		t.Fatalf("cube members %v want 2 slots", got)
	}
	for _, s := range got {
		if tb.scheme.CHIDToPlace(s).HID != 0 {
			t.Fatalf("cube member %d outside cube 0", s)
		}
	}
}

func TestMTViewClearsStaleHypercubes(t *testing.T) {
	tb := newTestbed(t, DefaultConfig())
	m := tb.addMember(0, 30, 0)
	tb.rebind()
	tb.ms.Join(m.ID, 5)
	tb.ms.LocalRound()
	tb.drain()
	tb.ms.MNTRound()
	tb.sim.RunUntil(tb.sim.Now() + 5)
	tb.ms.HTRound()
	tb.sim.RunUntil(tb.sim.Now() + 10)
	if hids := tb.ms.MTSummaryHIDs(slotIdx(tb, 7, 7), 5); !slices.Equal(hids, []logicalid.HID{0}) {
		t.Fatalf("setup: group 5 in cubes %v at (7,7), want [0]", hids)
	}
	// An HT round that changes nothing bumps no version.
	v := tb.ms.SummaryVersion()
	tb.ms.HTRound()
	tb.sim.RunUntil(tb.sim.Now() + 10)
	if got := tb.ms.SummaryVersion(); got != v {
		t.Fatalf("no-op HT round bumped SummaryVersion %d -> %d", v, got)
	}
	// The member leaves; after fresh Local/MNT/HT rounds the MT views
	// must drop the group, each slot's view bumping the version once.
	tb.ms.Leave(m.ID, 5)
	tb.ms.LocalRound()
	tb.drain()
	tb.ms.MNTRound()
	tb.sim.RunUntil(tb.sim.Now() + 5)
	v = tb.ms.SummaryVersion()
	tb.ms.HTRound()
	tb.sim.RunUntil(tb.sim.Now() + 10)
	if got, want := tb.ms.SummaryVersion()-v, uint64(tb.grid.Count()); got != want {
		t.Fatalf("dropping group 5 bumped SummaryVersion %d times, want one per slot (%d)", got, want)
	}
	for i := 0; i < tb.grid.Count(); i++ {
		if hids := tb.ms.MTSummaryHIDs(logicalid.CHID(i), 5); hids != nil {
			t.Fatalf("stale MT view at slot %d: %v, want nil", i, hids)
		}
	}

	// One slot, one summary at a time: a summary clears exactly the
	// bits of the groups it drops and bumps once if any bit moved.
	st := slotIdx(tb, 3, 3)
	const far = Group(1 << 40)
	for _, step := range []struct {
		what   string
		hid    logicalid.HID
		groups []GroupCount
		bumps  uint64
		want   map[Group][]logicalid.HID
	}{
		{"cube 1 gains 2 and 7", 1, []GroupCount{{2, 1}, {7, 3}}, 1, map[Group][]logicalid.HID{2: {1}, 7: {1}}},
		{"cube 2 gains 7", 2, []GroupCount{{7, 1}}, 1, map[Group][]logicalid.HID{2: {1}, 7: {1, 2}}},
		{"cube 1 repeats", 1, []GroupCount{{2, 1}, {7, 3}}, 0, map[Group][]logicalid.HID{2: {1}, 7: {1, 2}}},
		{"cube 1 recounts", 1, []GroupCount{{2, 4}, {7, 1}}, 0, map[Group][]logicalid.HID{2: {1}, 7: {1, 2}}},
		{"cube 1 drops 7", 1, []GroupCount{{2, 4}}, 1, map[Group][]logicalid.HID{2: {1}, 7: {2}}},
		{"cube 2 drops 7", 2, nil, 1, map[Group][]logicalid.HID{2: {1}, 7: nil}},
		{"cube 2 stays empty", 2, nil, 0, map[Group][]logicalid.HID{2: {1}, 7: nil}},
		{"cube 3 gains a far group", 3, []GroupCount{{far, 1}}, 1, map[Group][]logicalid.HID{2: {1}, far: {3}}},
	} {
		v := tb.ms.SummaryVersion()
		tb.ms.recordMT(st, step.hid, step.groups)
		if got := tb.ms.SummaryVersion() - v; got != step.bumps {
			t.Fatalf("%s: bumped %d times, want %d", step.what, got, step.bumps)
		}
		for g, want := range step.want {
			if got := tb.ms.MTSummaryHIDs(st, g); !slices.Equal(got, want) || (want == nil) != (got == nil) {
				t.Fatalf("%s: group %d in cubes %v, want %v", step.what, g, got, want)
			}
		}
	}
	// Rows follow the groups the slot has heard of (5 from the floods
	// above, then 2, 7 and far), not the largest group ID.
	if v := tb.ms.slot(st); !slices.Equal(v.mtGroups, []Group{2, 5, 7, far}) || len(v.mt) != 4*tb.ms.mtWords {
		t.Fatalf("MT rows for groups %v in %d words, want [2 5 7 %d] in %d", v.mtGroups, len(v.mt), far, 4*tb.ms.mtWords)
	}
}

func TestMembershipTrafficIsControl(t *testing.T) {
	tb := newTestbed(t, DefaultConfig())
	m := tb.addMember(0, 30, 0)
	tb.rebind()
	tb.ms.Join(m.ID, 5)
	tb.net.ResetTraffic()
	tb.ms.LocalRound()
	tb.drain()
	tb.ms.MNTRound()
	tb.sim.RunUntil(tb.sim.Now() + 5)
	st := tb.net.Stats()
	if st.DataBytes != 0 {
		t.Fatalf("membership counted as data: %d", st.DataBytes)
	}
	if st.KindTx[core.BeaconKind] != 0 {
		t.Fatal("unexpected beacon traffic in this test")
	}
	if st.ControlBytes == 0 {
		t.Fatal("no control traffic accounted")
	}
}

func TestStartStopTickers(t *testing.T) {
	tb := newTestbed(t, DefaultConfig())
	m := tb.addMember(0, 30, 0)
	tb.rebind()
	tb.ms.Join(m.ID, 5)
	tb.ms.Start()
	tb.sim.RunUntil(20)
	tb.ms.Stop()
	// The periodic machinery alone should have propagated membership
	// network-wide: HT period 8 fires at t=8 and t=16.
	if hids := tb.ms.MTSummaryHIDs(slotIdx(tb, 7, 7), 5); len(hids) != 1 {
		t.Fatalf("MT coverage %v want 1 hypercube", hids)
	}
}

func TestEmptyMembershipSendsNothing(t *testing.T) {
	tb := newTestbed(t, DefaultConfig())
	tb.net.ResetTraffic()
	tb.ms.LocalRound()
	tb.drain()
	if got := tb.net.Stats().KindTx[LocalKind]; got != 0 {
		t.Fatalf("nodes with no groups sent %d local reports", got)
	}
}
