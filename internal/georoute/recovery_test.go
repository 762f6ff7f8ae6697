package georoute

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/network"
)

// TestRecoveryDoesNotLoopOnRing is the regression test for perimeter
// loops: a ring of nodes around a large void, with the target position
// inside the void and no node there. Before the visited-set fix the
// right-hand walk circled the ring until TTL; now the walk must
// terminate (anycast-complete or drop) well within the hop budget.
func TestRecoveryDoesNotLoopOnRing(t *testing.T) {
	e := newEnv(42)
	// A 12-node ring of radius 600 m centered at (1500,1500); adjacent
	// ring nodes ~310 m apart but radio range is 250 m... use radius
	// 450 so spacing ~233 m keeps the ring connected.
	const n = 12
	center := geom.Pt(1500, 1500)
	for i := 0; i < n; i++ {
		angle := 2 * 3.141592653589793 * float64(i) / n
		p := center.Add(geom.FromPolar(450, angle))
		e.add(p.X, p.Y)
	}
	e.finish()
	// Target: the void center, anycast. The nearest ring node should
	// consume it after at most one recovery excursion.
	if !e.r.Send(0, center, network.NoNode, inner(e.net, 0)) {
		t.Fatal("send refused")
	}
	e.sim.Run()
	if len(e.delivered) != 1 {
		t.Fatalf("delivered %d dropped %d; ring walk did not terminate cleanly",
			len(e.delivered), e.r.Dropped())
	}
	if got := e.delivered[0].Hops; got > n+2 {
		t.Fatalf("hops %d exceed one ring circumnavigation (%d)", got, n+2)
	}
}

// TestRecoveryNamedDestinationUnreachable: a named destination outside
// the connected component must drop after a bounded walk, not loop.
func TestRecoveryNamedUnreachableDrops(t *testing.T) {
	e := newEnv(43)
	const n = 10
	center := geom.Pt(1500, 1500)
	for i := 0; i < n; i++ {
		angle := 2 * 3.141592653589793 * float64(i) / n
		p := center.Add(geom.FromPolar(400, angle))
		e.add(p.X, p.Y)
	}
	// The named destination sits isolated in the void.
	dst := e.add(center.X, center.Y)
	// Move it out of everyone's range... the void center is 400 m from
	// ring nodes, beyond the 250 m range, so it is already isolated.
	e.finish()
	e.r.Send(0, center, dst.ID, inner(e.net, 0))
	e.sim.Run()
	if len(e.delivered) != 0 {
		t.Fatal("unreachable destination was delivered")
	}
	if d := e.r.Drops(); d[DropTTL] != 1 || e.r.Dropped() != 1 {
		t.Fatalf("drops %v want one TTL expiry (the hop budget bounds the walk)", d)
	}
}
