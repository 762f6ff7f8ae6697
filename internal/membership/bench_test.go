package membership

import (
	"testing"

	"repro/internal/network"
)

// BenchmarkMembershipRounds times one Local + MNT + HT round and its
// drain on the 8x8 test backbone (four 4-D hypercubes), with two
// members in each of 13 VCs spread over all four cubes and four groups,
// so every summary carries several groups and every slot's MT view
// names every cube.
func BenchmarkMembershipRounds(b *testing.B) {
	tb := newTestbed(b, DefaultConfig())
	var members []network.NodeID
	for vc := 0; vc < tb.grid.Count(); vc += 5 {
		members = append(members, tb.addMember(vc, 30, 0).ID, tb.addMember(vc, -20, 15).ID)
	}
	tb.rebind()
	for i, id := range members {
		tb.ms.Join(id, Group(i%4))
		tb.ms.Join(id, Group((i+1)%4))
	}
	round := func() {
		tb.ms.LocalRound()
		tb.ms.MNTRound()
		tb.ms.HTRound()
		tb.drain()
	}
	// Reports, MNT floods and HT floods each land a round after they
	// leave, so the views converge by the third round.
	for i := 0; i < 3; i++ {
		round()
	}
	for g := Group(0); g < 4; g++ {
		if hids := tb.ms.MTSummaryHIDs(0, g); len(hids) != tb.scheme.NumHypercubes() {
			b.Fatalf("setup: group %d in cubes %v at slot 0, want all %d", g, hids, tb.scheme.NumHypercubes())
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}
