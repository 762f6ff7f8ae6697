package qos_test

import (
	"slices"
	"testing"

	"repro/internal/logicalid"
	"repro/internal/membership"
	"repro/internal/network"
	"repro/internal/qos"
	"repro/internal/scenario"
)

// buildWorld wires a converged world with one group spanning two cubes,
// its hvdb stack running until the test ends, and a manager of the
// test's own: unlike the stack's, no cluster-head-change hook reconciles
// it, so the tests drive Reconcile by hand.
func buildWorld(t *testing.T) (*scenario.World, *qos.Manager) {
	t.Helper()
	spec := scenario.DefaultSpec()
	spec.Seed = 5
	spec.Nodes = 80
	spec.Groups = 1
	spec.MembersPerGroup = 8
	spec.Mobility = scenario.Static
	w, err := scenario.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	stk, err := w.Protocol("hvdb")
	if err != nil {
		t.Fatal(err)
	}
	stk.Start()
	t.Cleanup(stk.Stop)
	w.WarmUp(14)
	return w, qos.NewManager(w.BB, w.MC)
}

func TestHardAdmissionAndRelease(t *testing.T) {
	w, m := buildWorld(t)
	src := w.RandomSource()
	s, err := m.Open(src, 0, 100e3, qos.Hard)
	if err != nil {
		t.Fatalf("admission failed: %v", err)
	}
	if s.Coverage() != 1 {
		t.Fatalf("hard session coverage %v want 1", s.Coverage())
	}
	if len(s.Reserved) == 0 || s.Demanded == 0 {
		t.Fatal("session reserved nothing")
	}
	if m.Active() != 1 || m.Admitted != 1 {
		t.Fatal("bookkeeping wrong")
	}
	util := m.Utilization()
	if util <= 0 {
		t.Fatal("utilization should be positive with an open session")
	}
	m.Close(s.ID)
	if m.Active() != 0 {
		t.Fatal("close did not remove session")
	}
	if got := m.Utilization(); got >= util {
		t.Fatalf("utilization %v did not drop after close (was %v)", got, util)
	}
	m.Close(s.ID) // idempotent
}

func TestHardAdmissionExhaustsCapacity(t *testing.T) {
	w, m := buildWorld(t)
	src := w.RandomSource()
	// CH radios carry 11 Mb/s; sessions of 4 Mb/s exhaust a CH after
	// two. Keep opening until rejection.
	admitted := 0
	for i := 0; i < 10; i++ {
		if _, err := m.Open(src, 0, 4e6, qos.Hard); err != nil {
			break
		}
		admitted++
	}
	if admitted == 0 {
		t.Fatal("no session admitted at all")
	}
	if admitted >= 10 {
		t.Fatal("capacity never exhausted; admission not enforcing")
	}
	if m.Rejected == 0 {
		t.Fatal("rejection not counted")
	}
}

func TestHardRejectionRollsBack(t *testing.T) {
	w, m := buildWorld(t)
	src := w.RandomSource()
	// Fill to rejection.
	for i := 0; i < 10; i++ {
		if _, err := m.Open(src, 0, 4e6, qos.Hard); err != nil {
			break
		}
	}
	utilAtReject := m.Utilization()
	// Another rejected attempt must not leak reservations.
	if _, err := m.Open(src, 0, 4e6, qos.Hard); err == nil {
		t.Fatal("expected rejection")
	}
	if got := m.Utilization(); got != utilAtReject {
		t.Fatalf("rejected session leaked reservations: %v -> %v", utilAtReject, got)
	}
}

func TestSoftAdmissionAlwaysAdmits(t *testing.T) {
	w, m := buildWorld(t)
	src := w.RandomSource()
	// Saturate hard first.
	for i := 0; i < 10; i++ {
		if _, err := m.Open(src, 0, 4e6, qos.Hard); err != nil {
			break
		}
	}
	s, err := m.Open(src, 0, 4e6, qos.Soft)
	if err != nil {
		t.Fatalf("soft admission should not fail: %v", err)
	}
	if s.Coverage() >= 1 {
		t.Fatalf("soft session on a saturated backbone should be partial, got %v", s.Coverage())
	}
}

func TestImpossibleRateRejectedHard(t *testing.T) {
	w, m := buildWorld(t)
	if _, err := m.Open(w.RandomSource(), 0, 1e12, qos.Hard); err == nil {
		t.Fatal("absurd rate admitted")
	}
}

func TestOpenFromDownSource(t *testing.T) {
	w, m := buildWorld(t)
	src := w.RandomSource()
	w.Net.Node(src).Fail()
	if _, err := m.Open(src, 0, 1000, qos.Hard); err == nil {
		t.Fatal("down source admitted")
	}
}

func TestTreeCHsSpanMemberCubes(t *testing.T) {
	w, _ := buildWorld(t)
	src := w.RandomSource()
	grid := w.Grid
	vc := grid.VCOf(w.Net.Node(src).TruePos())
	chs := w.MC.TreeCHs(logicalid.CHID(grid.Index(vc)), membership.Group(0))
	if len(chs) < 2 {
		t.Fatalf("tree spans only %d CHs for an 8-member group", len(chs))
	}
}

// TestHardAdmissionDeterministic is the ISSUE 5 headline regression
// test: the CH set a session reserves must be a pure function of the
// protocol state, never of map iteration order. The original bug fed
// mesh.MulticastTree a destination list built by ranging the MT-Summary
// map; greedy tree construction depends on destination order, so two
// admissions under identical state could reserve different CH sets.
// The test fails some anchors first (incomplete cubes force the tree
// builders through their fallback paths, where insertion order shapes
// the tree) and then reruns Hard-mode admission many times with the
// route cache bypassed, so every iteration reconstructs its trees from
// scratch.
func TestHardAdmissionDeterministic(t *testing.T) {
	w, m := buildWorld(t)
	w.FailRandomAnchors(6)
	w.Sim.RunUntil(w.Sim.Now() + 10) // let elections and summaries settle
	src := w.RandomSource()

	w.BB.Trees().SetBypass(true)
	var want []network.NodeID
	for i := 0; i < 50; i++ {
		s, err := m.Open(src, 0, 1e3, qos.Hard)
		if err != nil {
			t.Fatalf("iteration %d: admission failed: %v", i, err)
		}
		got := append([]network.NodeID(nil), s.Reserved...)
		m.Close(s.ID) // release so capacity stays constant across iterations
		if i == 0 {
			if len(got) == 0 {
				t.Fatal("first admission reserved nothing; test world too small")
			}
			want = got
			continue
		}
		if !slices.Equal(got, want) {
			t.Fatalf("iteration %d reserved %v, iteration 0 reserved %v", i, got, want)
		}
	}

	// The memoized path must agree with the from-scratch computes.
	w.BB.Trees().SetBypass(false)
	for i := 0; i < 2; i++ { // second pass exercises the cache hit
		s, err := m.Open(src, 0, 1e3, qos.Hard)
		if err != nil {
			t.Fatalf("cached admission failed: %v", err)
		}
		if !slices.Equal(s.Reserved, want) {
			t.Fatalf("cached admission reserved %v, fresh computes reserved %v", s.Reserved, want)
		}
		m.Close(s.ID)
	}
	// The first cached admission populated the route cache's mesh entry
	// and the second reused it: versions hold between the two, and the
	// mesh tree is the only part of admission that is memoized.
	if c := w.BB.Trees(); c.Misses == 0 || c.Hits == 0 {
		t.Fatalf("cached admission did not go through the route cache (hits=%d misses=%d)",
			c.Hits, c.Misses)
	}
}
