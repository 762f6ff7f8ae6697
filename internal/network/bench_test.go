package network

import (
	"fmt"
	"testing"

	"repro/internal/des"
	"repro/internal/geom"
	"repro/internal/mobility"
	"repro/internal/radio"
	"repro/internal/xrand"
)

// BenchmarkBroadcastFanout measures the full broadcast hot path —
// neighbor query, loss draws, fan-out scheduling, unpacking, and
// delivery — at the neighborhood degrees a dense MANET produces.
// Receivers sit well inside radio range so the degree is exact; the
// pooled-packet path is used so the steady state is allocation-free.
// The degree cases time one broadcast; the wave case times a flooding
// round, every node of a 160-node cluster broadcasting at one instant,
// so the receivers of many overlapping broadcasts come due together.
func BenchmarkBroadcastFanout(b *testing.B) {
	for _, degree := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("degree=%d", degree), func(b *testing.B) {
			sim, net := testNet()
			src := addStatic(net, 500, 500)
			for i := 0; i < degree; i++ {
				// Distinct distances inside range (all within ~160 m)
				// so per-receiver delivery times differ like real
				// neighborhoods.
				n := addStatic(net, 500+40+float64(i)*120/float64(degree), 500)
				n.SetHandler(func(*Node, NodeID, *Packet) {})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pkt := net.AcquirePacket()
				pkt.Kind = "bench"
				pkt.Src = src.ID
				pkt.Size = 64
				if got := net.Broadcast(src.ID, pkt); got != degree {
					b.Fatalf("broadcast reached %d want %d", got, degree)
				}
				net.ReleasePacket(pkt)
				for sim.Step() {
				}
			}
			b.StopTimer()
			if net.PooledInFlight() != 0 {
				b.Fatalf("pooled packets leaked: %d", net.PooledInFlight())
			}
		})
	}
	b.Run("wave=160", func(b *testing.B) {
		const k = 160
		sim, net := testNet()
		for i := 0; i < k; i++ {
			// A 13x13 grid at 12 m pitch: every pair within ~204 m.
			n := addStatic(net, 500+float64(i%13)*12, 500+float64(i/13)*12)
			n.SetHandler(func(*Node, NodeID, *Packet) {})
		}
		wave := func() {
			for src := NodeID(0); src < k; src++ {
				pkt := net.AcquirePacket()
				pkt.Kind = "bench"
				pkt.Src = src
				pkt.Size = 64
				if got := net.Broadcast(src, pkt); got != k-1 {
					b.Fatalf("broadcast reached %d want %d", got, k-1)
				}
				net.ReleasePacket(pkt)
			}
		}
		// A periodic timer keeps the ladder advancing as a protocol's
		// rounds do (a drained queue would leave every later insert in
		// the current bucket), and the wave runs from a timer event, so
		// its receivers come due together in a later bucket.
		tick := sim.Every(0, 2e-3, func() {})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sim.After(5e-3, wave)
			sim.RunUntil(sim.Now() + 20e-3)
		}
		b.StopTimer()
		tick.Stop()
		sim.Run()
		if net.PooledInFlight() != 0 {
			b.Fatalf("pooled packets leaked: %d", net.PooledInFlight())
		}
	})
}

// BenchmarkGreedyNext times one greedy next-hop query at data-1k's
// density: 1,000 waypoint movers (MN radio) over 4 x 4 km (62.5
// nodes/km^2) plus a static CH-radio anchor at every 250 m VC centre,
// which makes the index cells 350 m. Queries draw a random sender and a
// random in-arena target, and the clock steps 1 ms every 64 queries, so
// movers need exact position fixes as they do in a run. "scan" is the
// query it replaced: the sender's whole neighbour list with positions,
// then a strict-< pass for the neighbour nearest the target.
func BenchmarkGreedyNext(b *testing.B) {
	arena := geom.RectWH(0, 0, 4000, 4000)
	build := func() (*des.Simulator, *Network, []NodeID, []geom.Point) {
		sim := des.New()
		rng := xrand.New(7)
		net := New(sim, arena, rng.Split())
		for x := 125.0; x < 4000; x += 250 {
			for y := 125.0; y < 4000; y += 250 {
				net.AddNode(&mobility.Static{P: geom.Pt(x, y)}, radio.DefaultCH, nil, true)
			}
		}
		for i := 0; i < 1000; i++ {
			net.AddNode(mobility.NewWaypoint(arena, 1, 5, 10, rng.Split()), radio.DefaultMN, nil, false)
		}
		senders := make([]NodeID, 4096)
		targets := make([]geom.Point, len(senders))
		for i := range senders {
			senders[i] = NodeID(rng.Intn(net.Len()))
			targets[i] = geom.Pt(rng.Range(0, 4000), rng.Range(0, 4000))
		}
		return sim, net, senders, targets
	}
	run := func(b *testing.B, query func(net *Network, id NodeID, target geom.Point) NodeID) {
		sim, net, senders, targets := build()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%64 == 0 {
				sim.RunUntil(sim.Now() + 1e-3)
			}
			k := i % len(senders)
			sink = query(net, senders[k], targets[k])
		}
	}
	b.Run("greedy", func(b *testing.B) {
		run(b, func(net *Network, id NodeID, target geom.Point) NodeID {
			return net.LaneAt(0).GreedyNext(id, target)
		})
	})
	var ids []NodeID
	var pos []geom.Point
	b.Run("scan", func(b *testing.B) {
		run(b, func(net *Network, id NodeID, target geom.Point) NodeID {
			best := NoNode
			bestD2 := net.LaneAt(0).TruePosOf(id).Dist2(target)
			ids, pos = net.NeighborsPos(id, ids[:0], pos[:0])
			for i, nb := range ids {
				if d2 := pos[i].Dist2(target); d2 < bestD2 {
					best, bestD2 = nb, d2
				}
			}
			return best
		})
	})
}

var sink NodeID
