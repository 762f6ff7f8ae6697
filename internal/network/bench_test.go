package network

import (
	"fmt"
	"testing"
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
