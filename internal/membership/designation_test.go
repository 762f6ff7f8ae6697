package membership

import (
	"testing"

	"repro/internal/logicalid"
)

// designationBed builds a converged 8x8 world with members in cube 0
// under the given policy.
func designationBed(t *testing.T, policy DesignationPolicy) *testbed {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Designation = policy
	cfg.LocalTTL = 0 // report freshness has its own tests
	tb := newTestbed(t, cfg)
	m1 := tb.addMember(0, 30, 0) // VC (0,0)
	m2 := tb.addMember(9, 20, 0) // VC (1,1)
	tb.rebind()
	tb.ms.cfg = cfg // rebind rebuilt the service with default config
	tb.ms.Join(m1.ID, 5)
	tb.ms.Join(m2.ID, 5)
	tb.ms.LocalRound()
	tb.drain()
	tb.ms.MNTRound()
	tb.sim.RunUntil(tb.sim.Now() + 5)
	return tb
}

func designatedSlots(tb *testbed) []logicalid.CHID {
	var out []logicalid.CHID
	for _, vc := range tb.scheme.BlockVCs(0) {
		slot := logicalid.CHID(tb.grid.Index(vc))
		if tb.ms.Designated(slot) {
			out = append(out, slot)
		}
	}
	return out
}

func TestDesignateSelfPlusNeighborsUnique(t *testing.T) {
	tb := designationBed(t, DesignateSelfPlusNeighbors)
	if got := designatedSlots(tb); len(got) != 1 {
		t.Fatalf("designated slots %v want exactly 1", got)
	}
}

func TestDesignateSelfUnique(t *testing.T) {
	tb := designationBed(t, DesignateSelf)
	got := designatedSlots(tb)
	if len(got) != 1 {
		t.Fatalf("designated slots %v want exactly 1", got)
	}
	// Self-only criterion must pick a slot that actually hosts members.
	sum := tb.ms.MNTSummary(got[0])
	if countOf(sum, 5) == 0 {
		t.Fatalf("self criterion picked memberless slot %d", got[0])
	}
}

func TestDesignateFixedPicksLowestSlot(t *testing.T) {
	tb := designationBed(t, DesignateFixed)
	got := designatedSlots(tb)
	if len(got) != 1 {
		t.Fatalf("designated slots %v want exactly 1", got)
	}
	// Lowest occupied CHID of cube 0 is VC (0,0) = slot 0.
	if got[0] != 0 {
		t.Fatalf("fixed policy picked slot %d want 0", got[0])
	}
}

func TestDesignateFixedFailsOver(t *testing.T) {
	tb := designationBed(t, DesignateFixed)
	// Kill the CH of slot 0; the fixed policy must move to the next
	// occupied slot rather than halt.
	ch := tb.bb.CHNodeOf(0)
	tb.net.Node(ch).Fail()
	tb.cm.Elect()
	got := designatedSlots(tb)
	if len(got) != 1 {
		t.Fatalf("designated slots after failure %v want exactly 1", got)
	}
	if got[0] == 0 {
		t.Fatal("dead slot still designated")
	}
}

func TestPolicyStringsViaBroadcast(t *testing.T) {
	// All policies must drive HTRound to completion with one broadcast
	// per member-bearing cube.
	for _, policy := range []DesignationPolicy{DesignateSelfPlusNeighbors, DesignateSelf, DesignateFixed} {
		tb := designationBed(t, policy)
		before := tb.ms.HTBroadcasts
		tb.ms.HTRound()
		tb.sim.RunUntil(tb.sim.Now() + 5)
		// Designation policies apply per cube; all four cubes broadcast
		// (cubes without members still summarize empties), but at least
		// the member cube must.
		if tb.ms.HTBroadcasts == before {
			t.Fatalf("policy %d produced no HT broadcasts", policy)
		}
	}
}

// TestMultiHomeOverlapReliability exercises the paper's §3 overlap
// membership: a member standing in the overlap region of two VCs
// reports to both CHs under MultiHome, so when one VC's CH dies right
// after an election, the other cluster still delivers to it.
func TestMultiHomeOverlapReliability(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MultiHome = true
	cfg.LocalTTL = 0
	tb := newTestbed(t, cfg)
	// Place the member on the shared edge of VCs (0,0) and (1,0): both
	// circles cover it.
	m := tb.addMember(0, 125, 0) // VCC(0,0)=(125,125); +125 -> x=250, the edge
	tb.rebind()
	tb.ms.cfg = cfg
	tb.ms.Join(m.ID, 5)
	tb.ms.LocalRound()
	tb.drain()
	// Both covering CH slots must list the member.
	left := tb.ms.AppendLocalMembers(nil, 0, 5)  // slot (0,0)
	right := tb.ms.AppendLocalMembers(nil, 1, 5) // slot (1,0)
	if len(left) != 1 || len(right) != 1 {
		t.Fatalf("multi-home member known to %d/%d covering clusters want both", len(left), len(right))
	}
}

func TestSingleHomeReportsOnce(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LocalTTL = 0
	tb := newTestbed(t, cfg)
	m := tb.addMember(0, 125, 0) // same overlap position
	tb.rebind()
	tb.ms.cfg = cfg
	tb.ms.Join(m.ID, 5)
	tb.ms.LocalRound()
	tb.drain()
	known := 0
	if len(tb.ms.AppendLocalMembers(nil, 0, 5)) == 1 {
		known++
	}
	if len(tb.ms.AppendLocalMembers(nil, 1, 5)) == 1 {
		known++
	}
	if known != 1 {
		t.Fatalf("single-home member known to %d clusters want exactly 1", known)
	}
}
