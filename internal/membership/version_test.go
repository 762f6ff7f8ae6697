package membership

import (
	"testing"

	"repro/internal/logicalid"
)

// TestSummaryVersionStableAcrossNoOpRounds pins the version-key
// contract the route cache builds on (internal/route keys memoized
// trees by SummaryVersion): summary rounds that re-deliver an
// unchanged view — the steady state of a converged static network —
// must not bump SummaryVersion, or every cached tree would be evicted
// each round and the cache would never hit. A real membership change
// afterwards must still bump it.
func TestSummaryVersionStableAcrossNoOpRounds(t *testing.T) {
	tb := newTestbed(t, DefaultConfig())
	m1 := tb.addMember(9, 5, 5)
	m2 := tb.addMember(30, -5, 3)
	tb.rebind()
	tb.ms.Join(m1.ID, 1)
	tb.ms.Join(m2.ID, 1)

	round := func() {
		tb.ms.LocalRound()
		tb.drain()
		tb.ms.MNTRound()
		tb.sim.RunUntil(tb.sim.Now() + 5)
		tb.ms.HTRound()
		tb.sim.RunUntil(tb.sim.Now() + 10)
	}
	// Converge: the first rounds install MNT lanes and MT views.
	round()
	round()
	v := tb.ms.SummaryVersion()
	if v == 0 {
		t.Fatal("convergence rounds never bumped SummaryVersion; the test premise is broken")
	}

	// Steady state: identical summaries re-flood, setMNT and recordMT
	// must detect the no-op.
	for i := 0; i < 3; i++ {
		round()
	}
	if got := tb.ms.SummaryVersion(); got != v {
		t.Fatalf("no-op summary rounds bumped SummaryVersion %d -> %d", v, got)
	}

	// A genuine change still moves the version once rounds propagate it.
	tb.ms.Leave(m1.ID, 1)
	round()
	if got := tb.ms.SummaryVersion(); got <= v {
		t.Fatalf("membership change did not bump SummaryVersion (still %d)", got)
	}
}

// TestLanesKeepMapSemantics pins the lane map's contract: a colliding
// origin evicts the occupant to the spill map, nothing is lost, a
// re-installed origin leaves the spill map, and iteration visits every
// origin once, lanes first, then spill.
func TestLanesKeepMapSemantics(t *testing.T) {
	const a, b, c logicalid.CHID = 10, 20, 30
	l := newLanes[uint64](2)
	if got := l.get(0, a); got != 0 {
		t.Fatalf("unknown origin reads %d, want 0", got)
	}
	if !l.set(0, a, 1) || l.set(0, a, 2) {
		t.Fatal("set must report installing a, then updating it in place")
	}
	if !l.set(0, b, 5) || l.get(0, a) != 2 || l.get(0, b) != 5 {
		t.Fatal("collision lost the evicted occupant's value")
	}
	l.set(1, c, 7)
	if !l.set(0, a, 3) {
		t.Fatal("re-installing a from the spill map must report an install")
	}
	type entry struct {
		origin logicalid.CHID
		v      uint64
	}
	var got []entry
	l.each(func(o logicalid.CHID, v uint64) { got = append(got, entry{o, v}) })
	want := []entry{{a, 3}, {c, 7}, {b, 5}}
	if len(got) != len(want) {
		t.Fatalf("each visited %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("each visited %v, want %v", got, want)
		}
	}
}

// TestSetMNTBumpRule pins SummaryVersion's rule for the MNT view: an
// update in place bumps only when the counts change, and installing an
// origin into its lane always bumps, also when it comes back from the
// spill map with the counts it had.
func TestSetMNTBumpRule(t *testing.T) {
	tb := newTestbed(t, DefaultConfig())
	scheme := tb.bb.Scheme()
	// Two origins with the same in-cube label in different hypercubes
	// share a lane.
	a := logicalid.CHID(0)
	b := logicalid.CHID(-1)
	for c := logicalid.CHID(1); int(c) < scheme.Grid().Count(); c++ {
		pa, pc := scheme.CHIDToPlace(a), scheme.CHIDToPlace(c)
		if pc.HNID == pa.HNID && pc.HID != pa.HID {
			b = c
			break
		}
	}
	if b < 0 {
		t.Fatal("no two slots share a label; the test premise is broken")
	}
	st := tb.ms.slot(a)
	groups := func() []GroupCount { return []GroupCount{{1, 2}} }
	for _, step := range []struct {
		what   string
		origin logicalid.CHID
		groups []GroupCount
		bump   bool
	}{
		{"install a", a, groups(), true},
		{"same counts for a", a, groups(), false},
		{"new counts for a", a, []GroupCount{{1, 3}}, true},
		{"new group for a", a, []GroupCount{{1, 3}, {4, 1}}, true},
		{"install b over a", b, groups(), true},
		{"same counts for b", b, groups(), false},
		{"re-install a from spill", a, []GroupCount{{1, 3}, {4, 1}}, true},
	} {
		v := tb.ms.SummaryVersion()
		tb.ms.setMNT(st, step.origin, step.groups)
		if bumped := tb.ms.SummaryVersion() != v; bumped != step.bump {
			t.Fatalf("%s: bumped %v, want %v", step.what, bumped, step.bump)
		}
	}
}
