package qos_test

import (
	"testing"

	"repro/internal/qos"
)

// TestReconcileReleasesDeadRoutes is the admission-under-churn check:
// when a CH on a session's trees dies mid-session, Reconcile must
// release the bandwidth it reserved — for soft and hard sessions alike
// — instead of leaking it on a route that no longer exists.
func TestReconcileReleasesDeadRoutes(t *testing.T) {
	w, m := buildWorld(t)
	src := w.RandomSource()

	hard, err := m.Open(src, 0, 50e3, qos.Hard)
	if err != nil {
		t.Fatalf("hard admission: %v", err)
	}
	soft, err := m.Open(src, 0, 50e3, qos.Soft)
	if err != nil {
		t.Fatalf("soft admission: %v", err)
	}

	// Both sessions reserve on the same trees; kill one reserved CH and
	// let the cluster layer notice.
	victim := hard.Reserved[0]
	node := w.Net.Node(victim)
	if node.Capacity().Utilization() == 0 {
		t.Fatal("victim holds no reservation before failure")
	}
	node.Fail()
	w.CM.Elect()

	hardBefore, softBefore := len(hard.Reserved), len(soft.Reserved)
	released := m.Reconcile()
	if released < 2 {
		t.Fatalf("Reconcile released %d reservations, want >= 2 (hard + soft held the dead CH)", released)
	}
	if node.Capacity().Utilization() != 0 {
		t.Fatalf("dead CH still holds %.2f of its capacity reserved", node.Capacity().Utilization())
	}
	if len(hard.Reserved) >= hardBefore {
		t.Fatalf("hard session kept %d reservations, had %d before the failure", len(hard.Reserved), hardBefore)
	}
	if len(soft.Reserved) >= softBefore {
		t.Fatalf("soft session kept %d reservations, had %d before the failure", len(soft.Reserved), softBefore)
	}
	for _, s := range []*qos.Session{hard, soft} {
		for _, id := range s.Reserved {
			if id == victim {
				t.Fatalf("%s session still lists the dead CH %d as reserved", s.Mode, victim)
			}
		}
	}

	// Reconcile with a healthy backbone is a no-op.
	if again := m.Reconcile(); again != 0 {
		t.Fatalf("second Reconcile released %d more reservations", again)
	}

	// Closing after reconciliation must not double-release: utilization
	// over the backbone returns to zero exactly.
	m.Close(hard.ID)
	m.Close(soft.ID)
	if got := m.Utilization(); got != 0 {
		t.Fatalf("utilization %v after closing every session", got)
	}
}

// TestReconcileReleasesDemotedCH covers the churn case where the CH
// node survives but loses its backbone role to a re-election: the
// reservation rides on the role, so it must be released too.
func TestReconcileReleasesDemotedCH(t *testing.T) {
	w, m := buildWorld(t)
	s, err := m.Open(w.RandomSource(), 0, 50e3, qos.Soft)
	if err != nil {
		t.Fatalf("admission: %v", err)
	}
	// Demote one reserved CH by failing it, re-electing (a standby may
	// take over the slot), and reviving it as an ordinary node.
	victim := s.Reserved[0]
	w.Net.Node(victim).Fail()
	w.CM.Elect()
	w.Net.Node(victim).Recover()
	if w.BB.SlotOfNode(victim) >= 0 {
		t.Skip("victim regained its CH slot immediately; demotion not observable in this draw")
	}
	if m.Reconcile() == 0 {
		t.Fatal("Reconcile released nothing for the demoted CH")
	}
	if got := w.Net.Node(victim).Capacity().Utilization(); got != 0 {
		t.Fatalf("demoted CH still holds %.2f reserved", got)
	}
}
