package network

import (
	"math"
	"testing"
	"unsafe"

	"repro/internal/des"
	"repro/internal/geom"
	"repro/internal/gps"
	"repro/internal/mobility"
	"repro/internal/radio"
	"repro/internal/xrand"
)

func testNet() (*des.Simulator, *Network) {
	sim := des.New()
	net := New(sim, geom.RectWH(0, 0, 1000, 1000), xrand.New(42))
	return sim, net
}

func addStatic(net *Network, x, y float64) *Node {
	return net.AddNode(&mobility.Static{P: geom.Pt(x, y)}, radio.DefaultMN, nil, false)
}

func TestAddAndLookup(t *testing.T) {
	_, net := testNet()
	a := addStatic(net, 0, 0)
	b := addStatic(net, 10, 0)
	if a.ID != 0 || b.ID != 1 {
		t.Fatalf("IDs %d %d", a.ID, b.ID)
	}
	if net.Node(0) != a || net.Node(1) != b {
		t.Fatal("lookup mismatch")
	}
	if net.Node(-1) != nil || net.Node(2) != nil {
		t.Fatal("out-of-range lookup should be nil")
	}
	if net.Len() != 2 {
		t.Fatalf("Len=%d", net.Len())
	}
}

func TestNeighbors(t *testing.T) {
	_, net := testNet()
	a := addStatic(net, 0, 0)
	b := addStatic(net, 100, 0) // within 250 m
	c := addStatic(net, 500, 0) // out of range of a, within range of b
	nbrs := net.Neighbors(a.ID)
	if len(nbrs) != 1 || nbrs[0] != b.ID {
		t.Fatalf("neighbors of a = %v want [b]", nbrs)
	}
	nbrsB := net.Neighbors(b.ID)
	if len(nbrsB) != 1 { // a is a neighbor; c is 400m away > 250
		t.Fatalf("neighbors of b = %v", nbrsB)
	}
	_ = c
}

// TestNeighborsPosNilBuffers: positions come back parallel to the IDs
// whether or not the caller's buffers start nil, on a memo miss and on
// the hit that follows it.
func TestNeighborsPosNilBuffers(t *testing.T) {
	_, net := testNet()
	a := addStatic(net, 0, 0)
	addStatic(net, 100, 0)
	addStatic(net, 0, 200)
	for round := 0; round < 2; round++ {
		ids, pos := net.NeighborsPos(a.ID, nil, nil)
		if len(ids) != 2 || len(pos) != len(ids) {
			t.Fatalf("round %d: %d neighbours with %d positions", round, len(ids), len(pos))
		}
		for i, id := range ids {
			if want := net.Node(id).TruePos(); pos[i] != want {
				t.Fatalf("round %d: neighbour %d at %v, want %v", round, id, pos[i], want)
			}
		}
	}
}

func TestNeighborsExcludeDown(t *testing.T) {
	_, net := testNet()
	a := addStatic(net, 0, 0)
	b := addStatic(net, 100, 0)
	b.Fail()
	if nbrs := net.Neighbors(a.ID); len(nbrs) != 0 {
		t.Fatalf("down node appeared as neighbor: %v", nbrs)
	}
	b.Recover()
	if nbrs := net.Neighbors(a.ID); len(nbrs) != 1 {
		t.Fatalf("recovered node missing: %v", nbrs)
	}
}

func TestAddNodeGrowingCellSizeNoDuplicates(t *testing.T) {
	// A radio range above the initial cell size triggers a grid rebuild;
	// the just-added node must be indexed exactly once.
	_, net := testNet()
	a := addStatic(net, 0, 0)
	big := radio.Model{Range: 400, Bandwidth: 2e6, ProcDelay: 1e-3}
	b := net.AddNode(&mobility.Static{P: geom.Pt(100, 0)}, big, nil, false)
	nbrs := net.Neighbors(a.ID)
	if len(nbrs) != 1 || nbrs[0] != b.ID {
		t.Fatalf("neighbors of a = %v want exactly [%d]", nbrs, b.ID)
	}
}

func TestUnicastDelivery(t *testing.T) {
	sim, net := testNet()
	a := addStatic(net, 0, 0)
	b := addStatic(net, 100, 0)
	var got *Packet
	var from NodeID
	b.SetHandler(func(n *Node, f NodeID, pkt *Packet) { got, from = pkt, f })
	ok := net.Unicast(a.ID, b.ID, &Packet{Kind: "test", Src: a.ID, Dst: b.ID, Size: 100})
	if !ok {
		t.Fatal("in-range unicast refused")
	}
	if got != nil {
		t.Fatal("delivery should be asynchronous")
	}
	sim.Run()
	if got == nil {
		t.Fatal("packet not delivered")
	}
	if from != a.ID || got.Hops != 1 {
		t.Fatalf("from=%v hops=%d", from, got.Hops)
	}
	if sim.Now() <= 0 {
		t.Fatal("delivery should take positive time")
	}
}

func TestUnicastOutOfRange(t *testing.T) {
	_, net := testNet()
	a := addStatic(net, 0, 0)
	b := addStatic(net, 900, 0)
	if net.Unicast(a.ID, b.ID, &Packet{Kind: "test", Size: 10}) {
		t.Fatal("out-of-range unicast accepted")
	}
}

func TestUnicastToDownNode(t *testing.T) {
	_, net := testNet()
	a := addStatic(net, 0, 0)
	b := addStatic(net, 100, 0)
	b.Fail()
	if net.Unicast(a.ID, b.ID, &Packet{Kind: "test", Size: 10}) {
		t.Fatal("unicast to down node accepted")
	}
}

func TestNodeFailsWhilePacketInFlight(t *testing.T) {
	sim, net := testNet()
	a := addStatic(net, 0, 0)
	b := addStatic(net, 100, 0)
	delivered := false
	b.SetHandler(func(*Node, NodeID, *Packet) { delivered = true })
	net.Unicast(a.ID, b.ID, &Packet{Kind: "test", Size: 1000})
	b.Fail() // goes down before the delivery event fires
	sim.Run()
	if delivered {
		t.Fatal("packet delivered to node that failed mid-flight")
	}
}

func TestBroadcast(t *testing.T) {
	sim, net := testNet()
	a := addStatic(net, 500, 500)
	received := map[NodeID]int{}
	for i := 0; i < 5; i++ {
		n := addStatic(net, 500+float64(i+1)*30, 500)
		n.SetHandler(func(n *Node, _ NodeID, _ *Packet) { received[n.ID]++ })
	}
	far := addStatic(net, 0, 0)
	far.SetHandler(func(n *Node, _ NodeID, _ *Packet) { received[n.ID]++ })
	count := net.Broadcast(a.ID, &Packet{Kind: "beacon", Src: a.ID, Size: 50, Control: true})
	if count != 5 {
		t.Fatalf("broadcast reached %d want 5", count)
	}
	sim.Run()
	if len(received) != 5 {
		t.Fatalf("delivered to %d nodes want 5", len(received))
	}
	if received[far.ID] != 0 {
		t.Fatal("out-of-range node received broadcast")
	}
	// Broadcast charges the sender exactly once.
	if a.TxPackets != 1 {
		t.Fatalf("TxPackets=%d want 1 (wireless broadcast advantage)", a.TxPackets)
	}
}

func TestAccountingControlVsData(t *testing.T) {
	sim, net := testNet()
	a := addStatic(net, 0, 0)
	b := addStatic(net, 100, 0)
	net.Unicast(a.ID, b.ID, &Packet{Kind: "ctrl", Size: 10, Control: true})
	net.Unicast(a.ID, b.ID, &Packet{Kind: "data", Size: 1000})
	sim.Run()
	st := net.Stats()
	if st.ControlBytes != 10 || st.DataBytes != 1000 {
		t.Fatalf("ctrl=%d data=%d", st.ControlBytes, st.DataBytes)
	}
	if st.KindTx["ctrl"] != 1 || st.KindTx["data"] != 1 {
		t.Fatalf("per-kind tx %v", st.KindTx)
	}
	if st.KindBytes["data"] != 1000 {
		t.Fatalf("per-kind bytes %v", st.KindBytes)
	}
}

func TestForwardLoadAccounting(t *testing.T) {
	sim, net := testNet()
	a := addStatic(net, 0, 0)
	b := addStatic(net, 100, 0)
	c := addStatic(net, 200, 0)
	// b forwards a's packet to c.
	b.SetHandler(func(n *Node, _ NodeID, pkt *Packet) {
		if pkt.Dst != n.ID {
			net.Unicast(n.ID, c.ID, pkt)
		}
	})
	net.Unicast(a.ID, b.ID, &Packet{Kind: "data", Src: a.ID, Dst: c.ID, Size: 100})
	sim.Run()
	if b.ForwardLoad != 1 {
		t.Fatalf("b.ForwardLoad=%d want 1", b.ForwardLoad)
	}
	if a.ForwardLoad != 0 {
		t.Fatalf("a.ForwardLoad=%d want 0 (originated)", a.ForwardLoad)
	}
	loads := net.ForwardLoads()
	if len(loads) != 3 {
		t.Fatalf("loads length %d", len(loads))
	}
}

func TestResetTraffic(t *testing.T) {
	sim, net := testNet()
	a := addStatic(net, 0, 0)
	b := addStatic(net, 100, 0)
	net.Unicast(a.ID, b.ID, &Packet{Kind: "x", Size: 10, Control: true})
	sim.Run()
	net.ResetTraffic()
	st := net.Stats()
	if st.ControlBytes != 0 || len(st.KindTx) != 0 || a.TxPackets != 0 || b.RxBytes() != 0 {
		t.Fatal("ResetTraffic left residue")
	}
	// One receive counter (bytes), the handler, the node and liveness.
	if size := unsafe.Sizeof(nodeHot{}); unsafe.Sizeof(uintptr(0)) == 8 && size != 32 {
		t.Fatalf("nodeHot is %d bytes, want 32", size)
	}
}

// TestBroadcastHopsSharedByReceivers: the receivers of one broadcast
// share its packet, so each must read the same hop count — one more
// than the sender's — whatever order their deliveries run in.
func TestBroadcastHopsSharedByReceivers(t *testing.T) {
	sim, net := testNet()
	a := addStatic(net, 300, 300)
	var hops []int
	for _, x := range []float64{400, 200, 450} {
		addStatic(net, x, 350).SetHandler(func(_ *Node, _ NodeID, pkt *Packet) { hops = append(hops, pkt.Hops) })
	}
	net.Broadcast(a.ID, &Packet{Kind: "x", Src: a.ID, Dst: NoNode, Size: 10, Hops: 2})
	sim.Run()
	if len(hops) != 3 {
		t.Fatalf("%d receivers want 3", len(hops))
	}
	for i, h := range hops {
		if h != 3 {
			t.Fatalf("receiver %d read hops %d want 3 (all: %v)", i, h, hops)
		}
	}
}

func TestLossyLink(t *testing.T) {
	sim := des.New()
	net := New(sim, geom.RectWH(0, 0, 1000, 1000), xrand.New(7))
	lossy := radio.Model{Range: 250, Bandwidth: 2e6, ProcDelay: 1e-3, LossProb: 1.0}
	a := net.AddNode(&mobility.Static{P: geom.Pt(0, 0)}, lossy, nil, false)
	b := net.AddNode(&mobility.Static{P: geom.Pt(100, 0)}, radio.DefaultMN, nil, false)
	delivered := false
	b.SetHandler(func(*Node, NodeID, *Packet) { delivered = true })
	if !net.Unicast(a.ID, b.ID, &Packet{Kind: "x", Size: 10}) {
		t.Fatal("transmission should be attempted")
	}
	sim.Run()
	if delivered {
		t.Fatal("LossProb=1 delivered a packet")
	}
	if net.Stats().Lost != 1 {
		t.Fatalf("Lost=%d want 1", net.Stats().Lost)
	}
}

// TestReceiverDownCounted: a packet on air to a node that fails before
// it arrives is not delivered, and the drop is counted once, apart
// from radio loss; ResetTraffic clears the count.
func TestReceiverDownCounted(t *testing.T) {
	sim := des.New()
	net := New(sim, geom.RectWH(0, 0, 1000, 1000), xrand.New(7))
	a := net.AddNode(&mobility.Static{P: geom.Pt(0, 0)}, radio.DefaultMN, nil, false)
	b := net.AddNode(&mobility.Static{P: geom.Pt(100, 0)}, radio.DefaultMN, nil, false)
	delivered := false
	b.SetHandler(func(*Node, NodeID, *Packet) { delivered = true })
	if !net.Unicast(a.ID, b.ID, &Packet{Kind: "x", Size: 10}) {
		t.Fatal("transmission should be attempted")
	}
	b.Fail()
	sim.Run()
	if st := net.Stats(); delivered || st.ReceiverDown != 1 || st.Lost != 0 {
		t.Fatalf("delivered=%v ReceiverDown=%d Lost=%d, want false/1/0", delivered, st.ReceiverDown, st.Lost)
	}
	net.ResetTraffic()
	if n := net.Stats().ReceiverDown; n != 0 {
		t.Fatalf("ResetTraffic left ReceiverDown=%d", n)
	}
}

func TestAdoptPacketReleasesChildOnRecycle(t *testing.T) {
	_, net := testNet()
	inner := net.AcquirePacket()
	env := net.AcquirePacket()
	net.AdoptPacket(env, inner)
	net.ReleasePacket(inner) // caller done; the envelope keeps it alive
	if p := net.AcquirePacket(); p == inner {
		t.Fatal("adopted child recycled while its parent was still live")
	}
	net.ReleasePacket(env) // parent recycles -> child reference released
	if p := net.AcquirePacket(); p != inner {
		t.Fatal("child not recycled after its parent was released")
	}
}

func TestPacketClone(t *testing.T) {
	p := &Packet{Kind: "x", Size: 10, UID: 99, Hops: 2, Relays: 3}
	q := p.Clone()
	q.Hops = 5
	if p.Hops != 2 {
		t.Fatal("clone aliases original")
	}
	if q.UID != 99 || q.Kind != "x" || q.Relays != 3 {
		t.Fatal("clone dropped fields")
	}
}

// TestRecycledPacketZeroesRelays: the protocol's per-copy counter must
// not leak from one pooled packet's life into the next, and it must fit
// in the padding it was given.
func TestRecycledPacketZeroesRelays(t *testing.T) {
	_, net := testNet()
	p := net.AcquirePacket()
	p.Relays = 7
	net.ReleasePacket(p)
	q := net.AcquirePacket()
	if q != p {
		t.Fatal("the pool did not hand the released packet back")
	}
	if q.Relays != 0 {
		t.Fatalf("recycled packet carries Relays %d", q.Relays)
	}
	net.ReleasePacket(q)
	if size := unsafe.Sizeof(Packet{}); unsafe.Sizeof(uintptr(0)) == 8 && size != 112 {
		t.Fatalf("Packet is %d bytes, want 112", size)
	}
}

func TestMovingNodesChangeNeighbors(t *testing.T) {
	sim := des.New()
	net := New(sim, geom.RectWH(0, 0, 2000, 2000), xrand.New(9))
	// Node b moves right at 100 m/s away from a at origin.
	a := net.AddNode(&mobility.Static{P: geom.Pt(0, 0)}, radio.DefaultMN, nil, false)
	bMob := &mobility.Walk{Arena: geom.RectWH(0, 0, 2000, 2000), Speed: 0, Epoch: 1e9}
	_ = bMob
	b := net.AddNode(newLinearMover(geom.Pt(200, 0), geom.Vec(100, 0)), radio.DefaultMN, nil, false)
	if len(net.Neighbors(a.ID)) != 1 {
		t.Fatal("b should start as neighbor")
	}
	sim.Schedule(5, func() { // b is now at x=700, out of 250 m range
		if len(net.Neighbors(a.ID)) != 0 {
			t.Error("b should have left radio range")
		}
	})
	sim.Run()
	_ = b
}

// linearMover is a minimal deterministic mobility model for tests.
type linearMover struct {
	p0 geom.Point
	v  geom.Vector
}

func newLinearMover(p geom.Point, v geom.Vector) *linearMover {
	return &linearMover{p0: p, v: v}
}

func (m *linearMover) Advance(float64)   {}
func (m *linearMover) PieceEnd() float64 { return math.Inf(1) }
func (m *linearMover) TrueFix(now float64) gps.Fix {
	return gps.Fix{Pos: m.p0.Add(m.v.Scale(now)), Vel: m.v}
}
func (m *linearMover) DriftBound() (speed, jump float64) {
	return math.Hypot(m.v.DX, m.v.DY), 0
}

func TestSparseIndexOccupancy(t *testing.T) {
	// A clustered population in a mega-arena must materialize only the
	// index pages it stands on: allocated-tile memory tracks occupied
	// area, not arena area.
	sim := des.New()
	net := New(sim, geom.RectWH(0, 0, 50000, 50000), xrand.New(42))
	if len(net.tiles) < 256 {
		t.Fatalf("arena too small to exercise sparsity: %d tiles", len(net.tiles))
	}
	// 60 nodes clustered in a 2x2 km corner patch.
	rng := xrand.New(7)
	for i := 0; i < 60; i++ {
		addStatic(net, rng.Range(0, 2000), rng.Range(0, 2000))
	}
	occupied := 0
	for _, tl := range net.tiles {
		if tl != nil {
			occupied++
		}
	}
	if occupied == 0 {
		t.Fatal("no tiles materialized for an occupied cluster")
	}
	// The 2 km patch spans at most 2 tiles per axis at the default cell
	// size (a tile covers 8 cells >= 2.8 km); with grid padding and the
	// boundary this stays far below even 1% of the directory.
	if max := len(net.tiles) / 100; occupied > max {
		t.Fatalf("occupancy %d tiles exceeds 1%% of the %d-tile directory: index is not sparse", occupied, len(net.tiles))
	}
	// Queries across tile boundaries still see every in-range neighbor.
	a := addStatic(net, 2790, 2790) // last cell of tile (0,0) at cellSize 350
	b := addStatic(net, 2810, 2810) // first cell of tile (1,1)
	nbrs := net.Neighbors(a.ID)
	found := false
	for _, id := range nbrs {
		if id == b.ID {
			found = true
		}
	}
	if !found {
		t.Fatalf("cross-tile neighbor missing: %v", nbrs)
	}
}
