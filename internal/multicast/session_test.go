package multicast_test

import (
	"slices"
	"testing"

	"repro/internal/logicalid"
	"repro/internal/multicast"
	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/qos"
	"repro/internal/scenario"
)

// TestSessionReservesForwardingCHs holds QoS admission to the data
// plane: the CHs that consume a copy of a session's packet, plus the
// source's own CH, are exactly the session's TreeCHs, and a Hard session
// holds a reservation on each of them. The world is static and lossless
// and its control planes are stopped after warm-up, so the trees that
// admission builds are the trees the packet follows. Every ordinary
// node is the source in turn.
func TestSessionReservesForwardingCHs(t *testing.T) {
	spec := scenario.DefaultSpec()
	spec.Seed = 5
	spec.Nodes = 120
	spec.Mobility = scenario.Static
	spec.LossProb = 0
	spec.MembersPerGroup = 14
	w, err := scenario.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	stk, err := w.Protocol("hvdb")
	if err != nil {
		t.Fatal(err)
	}
	stk.Start()
	w.WarmUp(14)
	stk.Stop()
	qm := stk.(protocol.QoSCapable).QoS()

	consumed := map[uint64][]network.NodeID{}
	w.BB.HandleInner(multicast.DataKind, func(n *network.Node, from network.NodeID, pkt *network.Packet) {
		consumed[pkt.UID] = append(consumed[pkt.UID], n.ID)
		multicast.OnData(w.MC, n, from, pkt)
	})

	roots := map[logicalid.HID]bool{}
	for _, src := range w.Ordinary {
		slot := logicalid.CHID(w.Grid.Index(w.Grid.VCOf(w.Net.Node(src).Fix().Pos)))
		hid := w.Scheme.CHIDToPlace(slot).HID
		roots[hid] = true
		want := w.MC.TreeCHs(slot, 0)
		s, err := qm.Open(src, 0, 1e3, qos.Hard)
		if err != nil {
			t.Fatalf("source %d: hard admission failed: %v", src, err)
		}

		dropped := w.BB.Geo().Dropped()
		uid := w.MC.Send(src, 0, 512)
		if uid == 0 {
			t.Fatalf("source %d: send did not start", src)
		}
		w.RunUntil(w.Sim.Now() + 5)
		if d := w.BB.Geo().Dropped() - dropped; d != 0 {
			t.Fatalf("source %d: %d geo drops during the probe", src, d)
		}

		got := append(consumed[uid], w.BB.CHNodeOf(slot))
		slices.Sort(got)
		got = slices.Compact(got)
		if !slices.Equal(got, want) {
			t.Errorf("source %d (cube %d): forwarding CHs %v, TreeCHs %v", src, hid, got, want)
		}
		for _, ch := range got {
			if !slices.Contains(s.Reserved, ch) {
				t.Errorf("source %d: CH %d forwards the session's packet without a reservation (reserved %v)", src, ch, s.Reserved)
			}
		}
		qm.Close(s.ID)
	}
	if len(roots) < 2 {
		t.Fatalf("sources cover %d hypercube(s); the test needs a mesh tier", len(roots))
	}
}
