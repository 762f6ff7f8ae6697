package scenario

import (
	"math"
	"testing"

	"repro/internal/des"
	"repro/internal/geom"
	"repro/internal/gps"
	"repro/internal/membership"
	"repro/internal/mobility"
	"repro/internal/network"
	"repro/internal/radio"
)

// slowMover crosses from one point to another at constant velocity —
// deterministic cross-hypercube motion for integration tests.
type slowMover struct {
	from geom.Point
	vel  geom.Vector
}

func (m *slowMover) Advance(float64)   {}
func (m *slowMover) PieceEnd() float64 { return math.Inf(1) }
func (m *slowMover) TrueFix(now float64) gps.Fix {
	return gps.Fix{Pos: m.from.Add(m.vel.Scale(now)), Vel: m.vel}
}
func (m *slowMover) DriftBound() (speed, jump float64) {
	return math.Hypot(m.vel.DX, m.vel.DY), 0
}

// TestMemberMigratesAcrossHypercubes is the end-to-end mobility test:
// a group member starts in hypercube 0, walks into hypercube 1, and
// multicast keeps reaching it in both positions once the periodic
// membership plane has refreshed.
func TestMemberMigratesAcrossHypercubes(t *testing.T) {
	spec := DefaultSpec()
	spec.Nodes = 0 // backbone anchors only; we add the actors by hand
	w, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	// The migrating member: starts at VC (2,2) (cube 0), moves east at
	// 10 m/s, crossing into cube 1 (x >= 1000) at t=37.5.
	mover := w.Net.AddNode(&slowMover{from: geom.Pt(625, 625), vel: geom.Vec(10, 0)}, radio.DefaultMN, nil, false)
	mover.SetHandler(w.Mux.Dispatch)
	// A static source in cube 2.
	src := w.Net.AddNode(&mobility.Static{P: geom.Pt(625, 1625)}, radio.DefaultMN, nil, false)
	src.SetHandler(w.Mux.Dispatch)
	w.MS.Join(mover.ID, 3)

	stk := startHVDB(t, w)
	w.WarmUp(15) // membership converged; mover still in cube 0

	if got := w.Scheme.PlaceAt(mover.TruePos()).HID; got != 0 {
		t.Fatalf("mover should still be in cube 0 at t=15, got %d", got)
	}
	deliveries := 0
	stk.Deliveries(func(member network.NodeID, uid uint64, born des.Time, hops int) {
		if member == mover.ID {
			deliveries++
		}
	})
	if stk.Send(src.ID, 3, 128) == 0 {
		t.Fatal("send 1 failed")
	}
	w.Sim.RunUntil(w.Sim.Now() + 5)
	if deliveries != 1 {
		t.Fatalf("delivery in cube 0 failed: %d", deliveries)
	}

	// Let the mover cross into cube 1 and the membership plane refresh
	// (local 1 s, MNT 2 s, HT 8 s periods; allow two HT rounds).
	w.Sim.RunUntil(60)
	if got := w.Scheme.PlaceAt(mover.TruePos()).HID; got != 1 {
		t.Fatalf("mover should be in cube 1 at t=60, got %d", got)
	}
	if stk.Send(src.ID, 3, 128) == 0 {
		t.Fatal("send 2 failed")
	}
	w.Sim.RunUntil(w.Sim.Now() + 5)
	stk.Stop()
	if deliveries != 2 {
		t.Fatalf("delivery after migration failed: %d deliveries total", deliveries)
	}
	assertNoPacketLeaks(t, w)
}

// TestMulticastUnderContinuousMobility runs the full stack with every
// ordinary node moving and verifies sustained delivery over a long run.
func TestMulticastUnderContinuousMobility(t *testing.T) {
	spec := DefaultSpec()
	spec.Seed = 9
	spec.Nodes = 120
	spec.Mobility = Waypoint
	spec.MinSpeed = 2
	spec.MaxSpeed = 8
	spec.Pause = 2
	spec.Groups = 2
	spec.MembersPerGroup = 8
	w, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	stk := startHVDB(t, w)
	w.WarmUp(15)

	delivered := 0
	stk.Deliveries(func(network.NodeID, uint64, des.Time, int) { delivered++ })
	sent := 0
	for i := 0; i < 12; i++ {
		g := membership.Group(i % 2)
		if stk.Send(w.RandomSource(), g, 256) != 0 {
			sent++
		}
		w.Sim.RunUntil(w.Sim.Now() + 2)
	}
	w.Sim.RunUntil(w.Sim.Now() + 5)
	stk.Stop()

	expected := sent * spec.MembersPerGroup
	if expected == 0 {
		t.Fatal("nothing sent")
	}
	pdr := float64(delivered) / float64(expected)
	if pdr < 0.85 {
		t.Fatalf("PDR %.2f under mobility below 0.85 (%d/%d)", pdr, delivered, expected)
	}
	assertNoPacketLeaks(t, w)
}

// TestBackboneSurvivesMassAnchorFailure: availability at system level —
// a third of the backbone dies and multicast still delivers after
// re-convergence.
func TestBackboneSurvivesMassAnchorFailure(t *testing.T) {
	spec := DefaultSpec()
	spec.Seed = 13
	spec.Nodes = 80
	spec.Mobility = Static
	spec.Groups = 1
	spec.MembersPerGroup = 10
	w, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	stk := startHVDB(t, w)
	w.WarmUp(15)
	delivered := 0
	stk.Deliveries(func(network.NodeID, uint64, des.Time, int) { delivered++ })

	w.FailRandomAnchors(len(w.Anchors) / 3)
	w.Sim.RunUntil(w.Sim.Now() + 12) // re-elect, re-beacon, re-summarize

	// Members whose VC lost its only CH-capable node are legitimately
	// unreachable (their cluster has no head); measure delivery against
	// the coverable members.
	coverable := 0
	for _, id := range w.Members[0] {
		vc := w.Grid.VCOf(w.Net.Node(id).TruePos())
		if w.CM.CHOf(vc) != network.NoNode {
			coverable++
		}
	}
	if coverable == 0 {
		t.Skip("all members lost their cluster heads in this draw")
	}
	sent := 0
	for i := 0; i < 5; i++ {
		if stk.Send(w.RandomSource(), 0, 128) != 0 {
			sent++
		}
		w.Sim.RunUntil(w.Sim.Now() + 1)
	}
	w.Sim.RunUntil(w.Sim.Now() + 5)
	stk.Stop()
	if sent == 0 {
		t.Fatal("no sends succeeded")
	}
	pdr := float64(delivered) / float64(sent*coverable)
	if pdr < 0.8 {
		t.Fatalf("PDR %.2f of coverable members below 0.8 (%d/%d, %d of %d members coverable)",
			pdr, delivered, sent*coverable, coverable, len(w.Members[0]))
	}
	assertNoPacketLeaks(t, w)
}
