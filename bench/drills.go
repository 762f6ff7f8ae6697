package main

import (
	"math"
	"time"

	"repro/internal/des"
	"repro/internal/georoute"
	"repro/internal/hypercube"
	"repro/internal/membership"
	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/qos"
	"repro/internal/route"
	"repro/internal/scenario"
	"repro/internal/stats"
)

// Drills are the per-layer microbenchmarks: timed loops over one
// exported call per layer, run on the traced rep's warmed world after
// its control planes have stopped and its event queue has drained, so a
// drill times its own layer and what that layer schedules, nothing
// else. A drill that puts packets on the air drains them inside the
// timed loop: the cost of a send includes its deliveries.

// probeKind is the packet kind of drill traffic; no handler claims it,
// so the network delivers and counts it and the mux drops it.
const probeKind = "bench-probe"

// sink keeps drill results alive so the compiler cannot drop the calls.
var sink int

// perCall runs step in batches until the budget is spent and returns
// nanoseconds per unit, where one step is units units of work.
func perCall(budget time.Duration, units int, step func()) float64 {
	n := 0
	t0 := time.Now()
	for {
		step()
		n += units
		if el := time.Since(t0); el >= budget {
			return float64(el.Nanoseconds()) / float64(n)
		}
	}
}

func runDrills(m map[string]float64, w *scenario.World, stk protocol.Stack, o options) {
	budget := 150 * time.Millisecond
	if o.quick {
		budget = 5 * time.Millisecond
	}
	drain := func(d des.Duration) { w.RunUntil(w.Sim.Now() + d) }
	nodes := w.Net.Nodes()

	m["des.drill_ns_per_event"] = drillDES(budget, 0)
	m["des.drill_ns_per_event_deep"] = drillDES(budget, 100000)

	// network: neighbour queries round-robin over every node, then
	// unicasts and broadcasts from up nodes that have a neighbour.
	var buf []network.NodeID
	next := 0
	m["network.drill_neighbors_ns"] = perCall(budget, 256, func() {
		for i := 0; i < 256; i++ {
			buf = w.Net.NeighborsAppend(nodes[next%len(nodes)].ID, buf[:0])
			next++
		}
		sink += len(buf)
	})
	type link struct{ from, to network.NodeID }
	var links []link
	for _, n := range nodes {
		if nb := w.Net.Neighbors(n.ID); n.Up() && len(nb) > 0 {
			links = append(links, link{n.ID, nb[0]})
		}
		if len(links) == 256 {
			break
		}
	}
	if len(links) > 0 {
		send := func(tx func(l link, pkt *network.Packet)) func() {
			return func() {
				for _, l := range links {
					pkt := w.Net.AcquirePacket()
					pkt.Kind, pkt.Src, pkt.Dst, pkt.Size, pkt.Control = probeKind, l.from, l.to, 64, true
					tx(l, pkt)
					w.Net.ReleasePacket(pkt)
				}
				drain(0.1)
			}
		}
		m["network.drill_unicast_ns"] = perCall(budget, len(links), send(func(l link, pkt *network.Packet) {
			w.Net.Unicast(l.from, l.to, pkt)
		}))
		m["network.drill_broadcast_ns"] = perCall(budget, len(links), send(func(l link, pkt *network.Packet) {
			sink += w.Net.Broadcast(l.from, pkt)
		}))
	}

	// georoute: probes from ordinary nodes to the node nearest a point
	// half an arena away, consumed at the far end through Router.Deliver.
	geo := w.BB.Geo()
	geo.Deliver(probeKind, func(*network.Node, *network.Packet) { sink++ })
	arena := w.Net.Arena()
	half := arena.W() / 2
	var routes []link
	for i := 0; i < 32 && i < len(w.Ordinary); i++ {
		from := w.Ordinary[i*len(w.Ordinary)/32%len(w.Ordinary)]
		p := w.Net.Node(from).TruePos()
		best, bestErr := network.NoNode, math.Inf(1)
		for _, n := range nodes {
			if e := math.Abs(n.TruePos().Dist(p) - half); n.Up() && e < bestErr {
				best, bestErr = n.ID, e
			}
		}
		if best != network.NoNode && w.Net.Node(from).Up() {
			routes = append(routes, link{from, best})
		}
	}
	if len(routes) > 0 {
		geoTx := func() uint64 { return w.Net.Stats().KindTx[georoute.KindPrefix+probeKind] }
		tx0, sends := geoTx(), 0
		m["georoute.drill_send_ns"] = perCall(budget, len(routes), func() {
			for _, l := range routes {
				pkt := w.Net.AcquirePacket()
				pkt.Kind, pkt.Src, pkt.Dst, pkt.Size, pkt.Control = probeKind, l.from, l.to, 64, true
				pkt.UID = w.Net.NextUID()
				geo.Send(l.from, w.Net.Node(l.to).TruePos(), l.to, pkt)
				w.Net.ReleasePacket(pkt)
				sends++
			}
			drain(1)
		})
		m["georoute.drill_hops_per_send"] = float64(geoTx()-tx0) / float64(sends)
	}

	m["cluster.drill_elect_ns"] = perCall(budget, 1, func() { w.CM.Elect(); drain(0.1) })
	m["core.drill_beacon_round_ns"] = perCall(budget, 1, func() { w.BB.BeaconRound(); drain(1) })
	m["membership.drill_round_ns"] = perCall(budget, 1, func() {
		w.MS.LocalRound()
		w.MS.MNTRound()
		w.MS.HTRound()
		drain(2)
	})

	// route: a hit on a fresh cache runs the same lookup path the
	// backbone's cache does, without planting an entry in it.
	var trees route.Cache
	ver := route.Versions{Topo: w.CM.Version(), Summary: w.MS.SummaryVersion()}
	tree := route.MeshTree{0: 0}
	m["route.drill_hit_ns"] = perCall(budget, 1024, func() {
		for i := 0; i < 1024; i++ {
			sink += len(trees.MeshTree(ver, route.MeshKey{Group: i & 3}, func() route.MeshTree { return tree }))
		}
	})

	// multicast: whole sends (tree lookup, forwarding, local delivery)
	// from a source that can reach its cluster head, with the tree cache
	// on and bypassed.
	g := membership.Group(0)
	src := network.NoNode
	for _, id := range w.Ordinary {
		if stk.Send(id, g, 512) != 0 {
			src = id
			break
		}
	}
	drain(1)
	if src != network.NoNode {
		send := func() {
			for i := 0; i < 16; i++ {
				if stk.Send(src, g, 512) != 0 {
					sink++
				}
			}
			drain(1)
		}
		m["multicast.drill_send_ns"] = perCall(budget, 16, send)
		w.BB.Trees().SetBypass(true)
		m["multicast.drill_send_uncached_ns"] = perCall(budget, 16, send)
		w.BB.Trees().SetBypass(false)
		if q, ok := stk.(protocol.QoSCapable); ok {
			m["qos.drill_open_close_ns"] = perCall(budget, 1, func() {
				if s, err := q.QoS().Open(src, g, 64e3, qos.Soft); err == nil {
					q.QoS().Close(s.ID)
				}
			})
		}
	}

	cube := hypercube.Complete(4)
	dests := cube.Labels()[1:]
	m["hypercube.drill_tree_ns"] = perCall(budget, 1, func() {
		t, _ := cube.MulticastTree(0, dests)
		sink += len(t)
	})
	var h stats.LogHist
	m["stats.drill_loghist_add_ns"] = perCall(budget, 1024, func() {
		for i := 1; i <= 1024; i++ {
			h.Add(1e-4 * float64(i))
		}
	})
	sink += h.N()
}

// drillDES times the kernel alone: a chain of events each scheduling
// the next one microsecond later, with `pending` far-future timers
// parked in the queue (0: the shallow case; 100k: the deep pending set
// of a large world).
func drillDES(budget time.Duration, pending int) float64 {
	const chain = 50000
	sim := des.New()
	for i := 0; i < pending; i++ {
		sim.Schedule(des.Time(1e6+float64(i)), nop)
	}
	left := 0
	var hop func()
	hop = func() {
		if left--; left > 0 {
			sim.After(1e-6, hop)
		}
	}
	return perCall(budget, chain, func() {
		left = chain
		sim.After(1e-6, hop)
		sim.RunUntil(sim.Now() + 1)
	})
}
