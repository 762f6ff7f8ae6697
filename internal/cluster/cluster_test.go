package cluster

import (
	"math"
	"slices"
	"testing"

	"repro/internal/des"
	"repro/internal/geom"
	"repro/internal/gps"
	"repro/internal/mobility"
	"repro/internal/network"
	"repro/internal/radio"
	"repro/internal/vcgrid"
	"repro/internal/xrand"
)

func TestResidenceTime(t *testing.T) {
	c := geom.Circle{C: geom.Pt(0, 0), R: 100}
	// Moving east at 10 m/s from the center: exits after 10 s.
	got := ResidenceTime(gps.Fix{Pos: geom.Pt(0, 0), Vel: geom.Vec(10, 0)}, c)
	if math.Abs(got-10) > 1e-9 {
		t.Fatalf("residence %v want 10", got)
	}
	// From 50 m west of center moving east: 150 m to the east rim.
	got = ResidenceTime(gps.Fix{Pos: geom.Pt(-50, 0), Vel: geom.Vec(10, 0)}, c)
	if math.Abs(got-15) > 1e-9 {
		t.Fatalf("residence %v want 15", got)
	}
	// Stationary: capped.
	got = ResidenceTime(gps.Fix{Pos: geom.Pt(0, 0)}, c)
	if got != ResidenceCap {
		t.Fatalf("stationary residence %v want cap", got)
	}
	// Outside the circle already: zero.
	got = ResidenceTime(gps.Fix{Pos: geom.Pt(200, 0), Vel: geom.Vec(1, 0)}, c)
	if got != 0 {
		t.Fatalf("outside residence %v want 0", got)
	}
	// Moving away from near the rim: short residence.
	got = ResidenceTime(gps.Fix{Pos: geom.Pt(90, 0), Vel: geom.Vec(10, 0)}, c)
	if math.Abs(got-1) > 1e-9 {
		t.Fatalf("rim residence %v want 1", got)
	}
}

func TestResidenceTimeTangential(t *testing.T) {
	c := geom.Circle{C: geom.Pt(0, 0), R: 100}
	// Tangential motion from the center: chord of length 100 at 10 m/s.
	got := ResidenceTime(gps.Fix{Pos: geom.Pt(0, 50), Vel: geom.Vec(10, 0)}, c)
	want := math.Sqrt(100*100-50*50) / 10
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("tangential residence %v want %v", got, want)
	}
}

// buildNet places nodes at fixed positions; nodes are CH-capable unless
// listed in nonCapable.
func buildNet(positions []geom.Point, nonCapable map[int]bool) (*des.Simulator, *network.Network, *Manager) {
	sim := des.New()
	net := network.New(sim, geom.RectWH(0, 0, 1000, 1000), xrand.New(1))
	for i, p := range positions {
		net.AddNode(&mobility.Static{P: p}, radio.DefaultMN, nil, !nonCapable[i])
	}
	grid := vcgrid.New(geom.RectWH(0, 0, 1000, 1000), 250)
	m := NewManager(net, grid, DefaultConfig())
	return sim, net, m
}

func TestElectionPrefersCentralNode(t *testing.T) {
	// Two static CH-capable nodes in VC (0,0): both have capped
	// residence, so distance to the VCC (125,125) breaks the tie.
	_, _, m := buildNet([]geom.Point{
		geom.Pt(120, 120), // closer to VCC
		geom.Pt(20, 20),
	}, nil)
	m.Elect()
	if ch := m.CHOf(vcgrid.VC{CX: 0, CY: 0}); ch != 0 {
		t.Fatalf("CH = %d want 0 (closest to VCC)", ch)
	}
	if !m.IsCH(0) || m.IsCH(1) {
		t.Fatal("IsCH flags wrong")
	}
}

func TestElectionPrefersLongerResidence(t *testing.T) {
	// A moving node about to leave the VC loses to a stationary node
	// even though the mover is closer to the VCC.
	sim := des.New()
	net := network.New(sim, geom.RectWH(0, 0, 1000, 1000), xrand.New(2))
	grid := vcgrid.New(geom.RectWH(0, 0, 1000, 1000), 250)
	// Mover: at the VCC but moving fast (exits in ~17.7s).
	net.AddNode(newLinear(geom.Pt(125, 125), geom.Vec(10, 0)), radio.DefaultMN, nil, true)
	// Stayer: off-center but static (capped residence).
	net.AddNode(&mobility.Static{P: geom.Pt(60, 60)}, radio.DefaultMN, nil, true)
	m := NewManager(net, grid, DefaultConfig())
	m.Elect()
	if ch := m.CHOf(vcgrid.VC{CX: 0, CY: 0}); ch != 1 {
		t.Fatalf("CH = %d want 1 (longer residence)", ch)
	}
}

func TestNonCapableNodesNeverElected(t *testing.T) {
	_, _, m := buildNet([]geom.Point{
		geom.Pt(125, 125), // perfect position but not CH-capable
		geom.Pt(10, 10),
	}, map[int]bool{0: true})
	m.Elect()
	if ch := m.CHOf(vcgrid.VC{CX: 0, CY: 0}); ch != 1 {
		t.Fatalf("CH = %d want 1 (only capable candidate)", ch)
	}
}

func TestVCWithoutCapableNodesHasNoCH(t *testing.T) {
	_, _, m := buildNet([]geom.Point{geom.Pt(125, 125)}, map[int]bool{0: true})
	m.Elect()
	if ch := m.CHOf(vcgrid.VC{CX: 0, CY: 0}); ch != network.NoNode {
		t.Fatalf("CH = %d want NoNode", ch)
	}
}

func TestMembersAndVCOfNode(t *testing.T) {
	_, _, m := buildNet([]geom.Point{
		geom.Pt(10, 10), geom.Pt(240, 240), // VC (0,0)
		geom.Pt(260, 10), // VC (1,0)
	}, nil)
	m.Elect()
	if vc := m.VCOfNode(2); vc != (vcgrid.VC{CX: 1, CY: 0}) {
		t.Fatalf("node 2 VC %v", vc)
	}
	var members []network.NodeID
	for id := network.NodeID(0); id < 3; id++ {
		if m.VCOfNode(id) == (vcgrid.VC{CX: 0, CY: 0}) {
			members = append(members, id)
		}
	}
	if len(members) != 2 {
		t.Fatalf("members %v want 2 nodes", members)
	}
}

func TestDownNodesExcluded(t *testing.T) {
	_, net, m := buildNet([]geom.Point{
		geom.Pt(120, 120),
		geom.Pt(20, 20),
	}, nil)
	m.Elect()
	if m.CHOf(vcgrid.VC{CX: 0, CY: 0}) != 0 {
		t.Fatal("setup: node 0 should win")
	}
	net.Node(0).Fail()
	m.Elect()
	if ch := m.CHOf(vcgrid.VC{CX: 0, CY: 0}); ch != 1 {
		t.Fatalf("after failure CH = %d want 1", ch)
	}
}

func TestChangeNotificationAndCounter(t *testing.T) {
	_, net, m := buildNet([]geom.Point{
		geom.Pt(120, 120),
		geom.Pt(20, 20),
	}, nil)
	var events []network.NodeID
	m.OnChange(func(vc vcgrid.VC, old, new network.NodeID) {
		events = append(events, new)
	})
	m.Elect() // first election: NoNode -> 0
	net.Node(0).Fail()
	m.Elect() // 0 -> 1
	if len(events) != 2 || events[0] != 0 || events[1] != 1 {
		t.Fatalf("change events %v", events)
	}
	if m.Changes() != 2 {
		t.Fatalf("Changes=%d want 2", m.Changes())
	}
	if m.Elections() != 2 {
		t.Fatalf("Elections=%d want 2", m.Elections())
	}
}

func TestVCDisappearanceNotifies(t *testing.T) {
	_, net, m := buildNet([]geom.Point{geom.Pt(125, 125)}, nil)
	lost := false
	m.OnChange(func(vc vcgrid.VC, old, new network.NodeID) {
		if new == network.NoNode {
			lost = true
		}
	})
	m.Elect()
	net.Node(0).Fail()
	m.Elect()
	if !lost {
		t.Fatal("losing the only candidate should notify NoNode")
	}
}

// TestHeadSlotsAndNotifyOrder pins what an election shows its
// observers: changed and gained heads in VC-index order, then lost
// heads in VC-index order, each notified while CHOf and HeadSlots still
// report the previous assignment; afterwards HeadSlots lists the headed
// VCs in ascending index order.
func TestHeadSlotsAndNotifyOrder(t *testing.T) {
	_, net, m := buildNet([]geom.Point{
		geom.Pt(125, 375), // 0: heads VC (0,1), index 4
		geom.Pt(375, 125), // 1: heads VC (1,0), index 1
		geom.Pt(20, 20),   // 2: VC (0,0)'s runner-up
		geom.Pt(125, 125), // 3: heads VC (0,0), index 0
	}, nil)
	m.Elect()
	before := append([]int(nil), m.HeadSlots()...)
	if want := []int{0, 1, 4}; !slices.Equal(before, want) {
		t.Fatalf("HeadSlots %v want %v", before, want)
	}
	oldCH := map[int]network.NodeID{0: 3, 1: 1, 4: 0}
	type change struct {
		idx      int
		old, new network.NodeID
	}
	var got []change
	m.OnChange(func(vc vcgrid.VC, old, new network.NodeID) {
		idx := m.grid.Index(vc)
		got = append(got, change{idx, old, new})
		if !slices.Equal(m.HeadSlots(), before) {
			t.Errorf("HeadSlots %v during notify, want the old %v", m.HeadSlots(), before)
		}
		for i, ch := range oldCH {
			if m.CHOf(m.grid.FromIndex(i)) != ch {
				t.Errorf("CHOf(index %d) = %d during notify, want the old %d", i, m.CHOf(m.grid.FromIndex(i)), ch)
			}
		}
	})
	net.Node(0).Fail()
	net.Node(1).Fail()
	net.Node(3).Fail()
	net.AddNode(&mobility.Static{P: geom.Pt(625, 625)}, radio.DefaultMN, nil, true) // 4: VC (2,2), index 10
	m.Elect()
	want := []change{{0, 3, 2}, {10, network.NoNode, 4}, {1, 1, network.NoNode}, {4, 0, network.NoNode}}
	if len(got) != len(want) {
		t.Fatalf("notifications %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("notifications %v want %v", got, want)
		}
	}
	if after := m.HeadSlots(); !slices.Equal(after, []int{0, 10}) {
		t.Fatalf("HeadSlots %v after the election, want [0 10]", after)
	}
	if m.CHOf(vcgrid.VC{CX: 1, CY: 0}) != network.NoNode || m.CHOf(vcgrid.VC{CX: 2, CY: 2}) != 4 {
		t.Fatal("CHOf does not match the new assignment")
	}
}

func TestBeaconTrafficAccounted(t *testing.T) {
	sim, net, m := buildNet([]geom.Point{
		geom.Pt(10, 10), geom.Pt(100, 100), geom.Pt(500, 500),
	}, nil)
	m.Elect()
	sim.Run()
	st := net.Stats()
	if st.KindTx[BeaconKind] != 3 {
		t.Fatalf("beacons sent %d want 3", st.KindTx[BeaconKind])
	}
	if st.ControlBytes != 3*uint64(DefaultConfig().BeaconSize) {
		t.Fatalf("control bytes %d", st.ControlBytes)
	}
}

func TestPeriodicElections(t *testing.T) {
	sim, _, m := buildNet([]geom.Point{geom.Pt(125, 125)}, nil)
	m.Start()
	sim.RunUntil(5.5)
	m.Stop()
	// Start fires immediately and then each 1 s period: t=0 plus 1..5.
	if e := m.Elections(); e != 6 {
		t.Fatalf("Elections=%d want 6", e)
	}
}

func TestStableClustersUnderGroupMobility(t *testing.T) {
	// Nodes moving as one group should keep one stable CH per VC far
	// more often than not: low change count relative to elections.
	sim := des.New()
	net := network.New(sim, geom.RectWH(0, 0, 1000, 1000), xrand.New(5))
	rng := xrand.New(6)
	grid := vcgrid.New(geom.RectWH(0, 0, 1000, 1000), 250)
	g := mobility.NewGroup(geom.RectWH(100, 100, 800, 800), 2, 3, 0, rng.Split())
	for i := 0; i < 8; i++ {
		net.AddNode(g.Member(geom.Vec(float64(i)*8, 0), 3, rng.Split()), radio.DefaultMN, nil, true)
	}
	m := NewManager(net, grid, DefaultConfig())
	m.Start()
	sim.RunUntil(60)
	if m.Elections() < 50 {
		t.Fatalf("elections %d", m.Elections())
	}
	// The group spans at most a couple of VCs; CH changes should be far
	// rarer than elections.
	if m.Changes() > m.Elections() {
		t.Fatalf("cluster instability: %d changes in %d elections", m.Changes(), m.Elections())
	}
}

// linear is a constant-velocity mobility model for tests.
type linear struct {
	p0 geom.Point
	v  geom.Vector
}

func newLinear(p geom.Point, v geom.Vector) *linear { return &linear{p, v} }

func (l *linear) Advance(float64)   {}
func (l *linear) PieceEnd() float64 { return math.Inf(1) }
func (l *linear) TrueFix(now float64) gps.Fix {
	return gps.Fix{Pos: l.p0.Add(l.v.Scale(now)), Vel: l.v}
}
func (l *linear) DriftBound() (speed, jump float64) {
	return math.Hypot(l.v.DX, l.v.DY), 0
}
