package baseline

import (
	"testing"

	"repro/internal/des"
	"repro/internal/geom"
	"repro/internal/mobility"
	"repro/internal/network"
	"repro/internal/radio"
	"repro/internal/xrand"
)

// grid16 builds a connected 4x4 grid of static nodes, 200 m apart
// (radio range 250 m connects 4-neighbors only).
func grid16(seed uint64) (*des.Simulator, *network.Network, *network.Mux) {
	sim := des.New()
	net := network.New(sim, geom.RectWH(0, 0, 1000, 1000), xrand.New(seed))
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			net.AddNode(&mobility.Static{P: geom.Pt(100+float64(x)*200, 100+float64(y)*200)},
				radio.DefaultMN, nil, false)
		}
	}
	mux := network.Bind(net)
	return sim, net, mux
}

// observe registers an observer on p that counts member deliveries per
// uid, the record the tests read deliveries from.
func observe(p Protocol) map[uint64]int {
	got := make(map[uint64]int)
	p.OnDeliver(func(_ network.NodeID, uid uint64, _ des.Time, _ int) { got[uid]++ })
	return got
}

func TestFloodingDeliversToAllMembers(t *testing.T) {
	sim, net, mux := grid16(1)
	f := NewFlooding(net, mux)
	f.Join(5, 1)
	f.Join(15, 1)
	f.Join(0, 1) // the source itself
	delivered := observe(f)
	uid := f.Send(0, 1, 100)
	sim.Run()
	if got := delivered[uid]; got != 3 {
		t.Fatalf("delivered to %d members want 3", got)
	}
	// Every node transmits once: 16 transmissions of the data kind.
	if got := net.Stats().KindTx[FloodKind]; got != 16 {
		t.Fatalf("flood transmissions %d want 16", got)
	}
}

func TestFloodingNoDuplicateDeliveries(t *testing.T) {
	sim, net, mux := grid16(2)
	f := NewFlooding(net, mux)
	f.Join(10, 1)
	delivered := observe(f)
	uid := f.Send(0, 1, 50)
	sim.Run()
	if got := delivered[uid]; got != 1 {
		t.Fatalf("delivery count %d want 1", got)
	}
}

func TestFloodingPartitionLimitsDelivery(t *testing.T) {
	sim := des.New()
	net := network.New(sim, geom.RectWH(0, 0, 2000, 2000), xrand.New(3))
	net.AddNode(&mobility.Static{P: geom.Pt(0, 0)}, radio.DefaultMN, nil, false)
	net.AddNode(&mobility.Static{P: geom.Pt(1500, 1500)}, radio.DefaultMN, nil, false)
	mux := network.Bind(net)
	f := NewFlooding(net, mux)
	f.Join(1, 1)
	delivered := observe(f)
	uid := f.Send(0, 1, 50)
	sim.Run()
	if delivered[uid] != 0 {
		t.Fatal("flood crossed a partition")
	}
}

func TestDSMDeliveryAndOverhead(t *testing.T) {
	sim, net, mux := grid16(4)
	d := NewDSM(net, mux)
	d.Join(12, 2)
	d.Join(3, 2)
	d.Start()
	sim.RunUntil(5) // a few position rounds
	d.Stop()
	ctl := net.Stats().ControlBytes
	if ctl == 0 {
		t.Fatal("DSM position floods not charged")
	}
	// Each round floods N=16 origins through 16 nodes each: O(N^2).
	if tx := net.Stats().KindTx[DSMPositionKind]; tx < 16*16 {
		t.Fatalf("position transmissions %d want >= 256 (two rounds, N^2 each)", tx)
	}
	delivered := observe(d)
	uid := d.Send(0, 2, 200)
	sim.Run()
	if got := delivered[uid]; got != 2 {
		t.Fatalf("delivered %d want 2", got)
	}
}

func TestDSMTreeIsSourceRooted(t *testing.T) {
	sim, net, mux := grid16(5)
	d := NewDSM(net, mux)
	d.Join(15, 1)
	delivered := observe(d)
	uid := d.Send(0, 1, 100)
	sim.Run()
	if delivered[uid] != 1 {
		t.Fatal("corner-to-corner delivery failed")
	}
	// Only tree nodes forward: far fewer than flooding's 16.
	if tx := net.Stats().KindTx[DSMDataKind]; tx >= 16 {
		t.Fatalf("DSM transmitted %d data packets; tree should be sparse", tx)
	}
}

func TestPBMDelivery(t *testing.T) {
	sim, net, mux := grid16(6)
	p := NewPBM(net, mux)
	p.Join(15, 1)
	p.Join(12, 1)
	p.Join(0, 1)
	delivered := observe(p)
	uid := p.Send(0, 1, 100)
	sim.Run()
	if got := delivered[uid]; got != 3 {
		t.Fatalf("delivered %d want 3", got)
	}
}

func TestPBMSplitsTowardDivergingDestinations(t *testing.T) {
	sim, net, mux := grid16(7)
	p := NewPBM(net, mux)
	// Destinations at opposite corners from a center source.
	p.Join(3, 1)  // (700,100)
	p.Join(12, 1) // (100,700)
	delivered := observe(p)
	uid := p.Send(5, 1, 100) // (300,300)
	sim.Run()
	if got := delivered[uid]; got != 2 {
		t.Fatalf("delivered %d want 2", got)
	}
}

func TestPBMControlOnlyFromMembers(t *testing.T) {
	sim, net, mux := grid16(8)
	p := NewPBM(net, mux)
	p.Join(1, 1)
	p.Join(2, 1)
	p.Start()
	sim.RunUntil(3) // one report round
	p.Stop()
	// Two member-origin floods of 16 transmissions each.
	if tx := net.Stats().KindTx[PBMReportKind]; tx != 32 {
		t.Fatalf("report transmissions %d want 32", tx)
	}
}

func TestSPBMDelivery(t *testing.T) {
	sim, net, mux := grid16(9)
	s := NewSPBM(net, mux)
	s.Join(15, 1)
	s.Join(5, 1)
	delivered := observe(s)
	uid := s.Send(0, 1, 100)
	sim.Run()
	if got := delivered[uid]; got != 2 {
		t.Fatalf("delivered %d want 2", got)
	}
}

func TestSPBMControlCheaperThanDSM(t *testing.T) {
	simD, netD, muxD := grid16(10)
	d := NewDSM(netD, muxD)
	d.Start()
	simD.RunUntil(9)
	d.Stop()
	dsmCtl := netD.Stats().ControlBytes

	simS, netS, muxS := grid16(10)
	s := NewSPBM(netS, muxS)
	s.Start()
	simS.RunUntil(9)
	s.Stop()
	spbmCtl := netS.Stats().ControlBytes
	if spbmCtl >= dsmCtl {
		t.Fatalf("SPBM control %d should be below DSM %d (aggregation)", spbmCtl, dsmCtl)
	}
}

func TestCBTDeliveryViaCore(t *testing.T) {
	sim, net, mux := grid16(11)
	c := NewCBT(net, mux)
	core := c.ChooseCore()
	c.Join(0, 1)
	c.Join(15, 1)
	delivered := observe(c)
	uid := c.Send(3, 1, 100)
	sim.Run()
	if got := delivered[uid]; got != 2 {
		t.Fatalf("delivered %d want 2", got)
	}
	// The core must have forwarded traffic (hot spot by construction).
	if net.Node(core).TxPackets == 0 {
		t.Fatal("core did not forward")
	}
}

func TestCBTCoreIsHotSpot(t *testing.T) {
	sim, net, mux := grid16(12)
	c := NewCBT(net, mux)
	core := c.ChooseCore()
	for _, m := range []network.NodeID{0, 3, 12, 15} {
		c.Join(m, 1)
	}
	// Many senders from different corners.
	for i := 0; i < 10; i++ {
		for _, src := range []network.NodeID{1, 2, 13, 14} {
			c.Send(src, 1, 100)
		}
		sim.RunUntil(sim.Now() + 1)
	}
	sim.Run()
	coreLoad := net.Node(core).ForwardLoad
	var maxOther uint64
	for _, n := range net.Nodes() {
		if n.ID != core && n.ForwardLoad > maxOther {
			maxOther = n.ForwardLoad
		}
	}
	if coreLoad == 0 {
		t.Fatal("core carried no load")
	}
	// The rendezvous design concentrates load at/near the core.
	if coreLoad*2 < maxOther {
		t.Fatalf("core load %d unexpectedly below other nodes' %d", coreLoad, maxOther)
	}
}

func TestCBTSendFromCore(t *testing.T) {
	sim, net, mux := grid16(13)
	c := NewCBT(net, mux)
	core := c.ChooseCore()
	c.Join(0, 1)
	delivered := observe(c)
	uid := c.Send(core, 1, 64)
	sim.Run()
	if delivered[uid] != 1 {
		t.Fatal("core-originated send failed")
	}
}

func TestCBTJoinRefreshCharged(t *testing.T) {
	sim, net, mux := grid16(14)
	c := NewCBT(net, mux)
	c.ChooseCore()
	c.Join(0, 1)
	c.Join(15, 1)
	c.Start()
	sim.RunUntil(5)
	c.Stop()
	if net.Stats().ControlBytes == 0 {
		t.Fatal("join refreshes not charged")
	}
}

func TestAllProtocolsImplementInterface(t *testing.T) {
	_, net, mux := grid16(15)
	ps := []Protocol{
		NewFlooding(net, network.NewMux()),
		NewDSM(net, network.NewMux()),
		NewPBM(net, network.NewMux()),
		NewSPBM(net, network.NewMux()),
		NewCBT(net, mux),
	}
	names := map[string]bool{}
	for _, p := range ps {
		if p.Name() == "" {
			t.Fatal("empty name")
		}
		names[p.Name()] = true
		p.Join(0, 1)
		p.Leave(0, 1)
		p.Start()
		p.Stop()
	}
	if len(names) != 5 {
		t.Fatalf("duplicate protocol names: %v", names)
	}
}

func TestSendFromDownNodeFailsAcrossProtocols(t *testing.T) {
	sim, net, mux := grid16(16)
	_ = sim
	f := NewFlooding(net, mux)
	net.Node(0).Fail()
	if f.Send(0, 1, 10) != 0 {
		t.Fatal("flooding accepted down source")
	}
	d := NewDSM(net, network.NewMux())
	if d.Send(0, 1, 10) != 0 {
		t.Fatal("dsm accepted down source")
	}
}
