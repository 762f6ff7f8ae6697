package georoute

import (
	"testing"

	"repro/internal/des"
	"repro/internal/geom"
	"repro/internal/mobility"
	"repro/internal/network"
	"repro/internal/radio"
	"repro/internal/xrand"
)

type env struct {
	sim *des.Simulator
	net *network.Network
	mux *network.Mux
	r   *Router

	delivered []*network.Packet
	at        []network.NodeID
}

func newEnv(seed uint64) *env {
	e := &env{}
	e.sim = des.New()
	e.net = network.New(e.sim, geom.RectWH(0, 0, 3000, 3000), xrand.New(seed))
	return e
}

func (e *env) finish() {
	e.mux = network.Bind(e.net)
	e.r = Attach(e.net, e.mux)
	e.r.DeliverFallback(func(n *network.Node, inner *network.Packet) {
		e.delivered = append(e.delivered, inner)
		e.at = append(e.at, n.ID)
	})
}

func (e *env) add(x, y float64) *network.Node {
	return e.net.AddNode(&mobility.Static{P: geom.Pt(x, y)}, radio.DefaultMN, nil, false)
}

func inner(net *network.Network, src network.NodeID) *network.Packet {
	return &network.Packet{Kind: "payload", Src: src, Size: 100, UID: net.NextUID()}
}

func TestDirectNeighborDelivery(t *testing.T) {
	e := newEnv(1)
	a := e.add(0, 0)
	b := e.add(200, 0)
	e.finish()
	if !e.r.Send(a.ID, geom.Pt(200, 0), b.ID, inner(e.net, a.ID)) {
		t.Fatal("send refused")
	}
	e.sim.Run()
	if len(e.delivered) != 1 || e.at[0] != b.ID {
		t.Fatalf("delivered %v at %v", e.delivered, e.at)
	}
	if e.r.Delivered != 1 || e.r.Dropped() != 0 {
		t.Fatalf("counters %d/%d", e.r.Delivered, e.r.Dropped())
	}
}

func TestMultiHopGreedyChain(t *testing.T) {
	e := newEnv(2)
	// Chain of nodes 200 m apart; radio range 250 m.
	var last *network.Node
	for i := 0; i <= 10; i++ {
		last = e.add(float64(i)*200, 0)
	}
	e.finish()
	if !e.r.Send(0, geom.Pt(2000, 0), last.ID, inner(e.net, 0)) {
		t.Fatal("send refused")
	}
	e.sim.Run()
	if len(e.delivered) != 1 {
		t.Fatalf("delivered %d want 1", len(e.delivered))
	}
	if e.delivered[0].Hops != 10 {
		t.Fatalf("hops %d want 10 (greedy shortest chain)", e.delivered[0].Hops)
	}
}

func TestSelfDelivery(t *testing.T) {
	e := newEnv(3)
	a := e.add(0, 0)
	e.finish()
	if !e.r.Send(a.ID, geom.Pt(0, 0), a.ID, inner(e.net, a.ID)) {
		t.Fatal("self send refused")
	}
	if len(e.delivered) != 1 {
		t.Fatal("self delivery should be synchronous")
	}
}

func TestAnycastToLocation(t *testing.T) {
	e := newEnv(4)
	e.add(0, 0)
	e.add(200, 0)
	c := e.add(400, 0)
	e.finish()
	// No named destination: the packet should settle at the node
	// nearest the target (600,0), which is c.
	if !e.r.Send(0, geom.Pt(600, 0), network.NoNode, inner(e.net, 0)) {
		t.Fatal("send refused")
	}
	e.sim.Run()
	if len(e.delivered) != 1 || e.at[0] != c.ID {
		t.Fatalf("anycast delivered at %v want %d", e.at, c.ID)
	}
}

func TestPerimeterRecoveryAroundVoid(t *testing.T) {
	e := newEnv(5)
	// A "U" around a radio void: the greedy path from the west arm
	// stalls at the void edge; perimeter mode must route around the rim.
	// West arm.
	e.add(0, 1000)   // 0 source
	e.add(220, 1000) // 1 local maximum (no neighbor closer to target)
	// Rim detour south.
	e.add(300, 800)  // 2
	e.add(450, 650)  // 3
	e.add(650, 550)  // 4
	e.add(850, 650)  // 5
	e.add(1000, 800) // 6
	// East arm: destination.
	dst := e.add(1100, 1000) // 7
	e.finish()
	if !e.r.Send(0, geom.Pt(1100, 1000), dst.ID, inner(e.net, 0)) {
		t.Fatal("send refused")
	}
	e.sim.Run()
	if len(e.delivered) != 1 {
		t.Fatalf("void not routed around: delivered=%d dropped=%d", e.r.Delivered, e.r.Dropped())
	}
	if e.delivered[0].Hops < 5 {
		t.Fatalf("hops %d suspiciously few for the rim detour", e.delivered[0].Hops)
	}
}

func TestDisconnectedDrops(t *testing.T) {
	e := newEnv(6)
	e.add(0, 0)
	dst := e.add(2500, 2500) // far out of any range
	e.finish()
	e.r.Send(0, geom.Pt(2500, 2500), dst.ID, inner(e.net, 0))
	e.sim.Run()
	if len(e.delivered) != 0 {
		t.Fatal("impossible delivery")
	}
	if e.r.Dropped() == 0 {
		t.Fatal("drop not counted")
	}
}

func TestTTLBoundsForwarding(t *testing.T) {
	e := newEnv(7)
	// Dense line long enough to exceed the TTL budget: spacing 100 m,
	// so >64 hops needed if greedy picked minimal steps; greedy takes
	// max-progress steps (240 m), so build length > 64*240 m is too
	// big for the arena. Instead verify TTL decrements by sending
	// through a ring that perimeter mode could loop on.
	var ids []network.NodeID
	for i := 0; i < 20; i++ {
		ids = append(ids, e.add(float64(i)*100, 0).ID)
	}
	e.finish()
	// Target far beyond the east end with no node there: the packet
	// anycast-completes at the last node instead of looping.
	e.r.Send(ids[0], geom.Pt(5000, 0), network.NoNode, inner(e.net, ids[0]))
	e.sim.Run()
	if len(e.delivered) != 1 || e.at[0] != ids[len(ids)-1] {
		t.Fatalf("anycast to far point should stop at line end; at=%v", e.at)
	}
}

func TestEnvelopeOverheadAccounted(t *testing.T) {
	e := newEnv(8)
	a := e.add(0, 0)
	b := e.add(200, 0)
	e.finish()
	e.r.Send(a.ID, geom.Pt(200, 0), b.ID, &network.Packet{Kind: "payload", Src: a.ID, Size: 100, UID: 1})
	e.sim.Run()
	st := e.net.Stats()
	if st.KindBytes[KindPrefix+"payload"] != 100+HeaderSize {
		t.Fatalf("geo bytes %d want %d", st.KindBytes[KindPrefix+"payload"], 100+HeaderSize)
	}
}

func TestGabrielNeighborsPlanarity(t *testing.T) {
	e := newEnv(9)
	// Three collinear-ish nodes: the long edge 0-2 must be pruned
	// because 1 lies inside its diameter disc.
	a := e.add(0, 0)
	e.add(100, 10)
	c := e.add(200, 0)
	e.finish()
	nbrs := e.r.gabrielNeighbors(&e.r.rl[0], e.net.Node(a.ID), e.net.Node(a.ID).TruePos())
	for _, id := range nbrs {
		if id == c.ID {
			t.Fatal("gabriel graph kept a dominated edge")
		}
	}
	if len(nbrs) != 1 {
		t.Fatalf("gabriel neighbors %v want just the middle node", nbrs)
	}
}

func TestDownSourceRefused(t *testing.T) {
	e := newEnv(10)
	a := e.add(0, 0)
	e.add(200, 0)
	e.finish()
	a.Fail()
	if e.r.Send(a.ID, geom.Pt(200, 0), 1, inner(e.net, a.ID)) {
		t.Fatal("send from down node accepted")
	}
}

// TestDropsByCause: each way the router gives a packet up lands on its
// own counter, and Dropped is their sum.
func TestDropsByCause(t *testing.T) {
	e := newEnv(10)
	a := e.add(0, 0)
	b := e.add(200, 0)
	far := e.add(2500, 2500) // no neighbours: a void with no perimeter
	e.finish()
	e.r.Send(far.ID, geom.Pt(0, 0), a.ID, inner(e.net, far.ID))
	// A header whose hop budget is spent, decided at a.
	rl := &e.r.rl[0]
	h := e.r.acquireHeader(rl)
	h.Target, h.FinalDst, h.PrevHop, h.Inner = geom.Pt(200, 0), b.ID, network.NoNode, inner(e.net, a.ID)
	if e.r.forward(rl, e.net.Node(a.ID), h) {
		t.Fatal("spent header forwarded")
	}
	// A geo envelope that carries no header.
	e.net.Unicast(a.ID, b.ID, &network.Packet{Kind: Kind, Src: a.ID, Size: HeaderSize})
	e.sim.Run()
	want := [NumDropCauses]uint64{DropTTL: 1, DropVoid: 1, DropMalformed: 1}
	if got := e.r.Drops(); got != want {
		t.Fatalf("drops %v want %v", got, want)
	}
	if e.r.Dropped() != 3 {
		t.Fatalf("Dropped %d want 3", e.r.Dropped())
	}
	if len(e.delivered) != 0 {
		t.Fatalf("delivered %d", len(e.delivered))
	}
}
