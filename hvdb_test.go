package hvdb

import (
	"strings"
	"testing"
)

func TestFacadeBuildAndRun(t *testing.T) {
	spec := DefaultSpec()
	spec.Nodes = 60
	spec.Groups = 1
	spec.MembersPerGroup = 6
	spec.Mobility = Static
	w, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	stk, err := w.Protocol("hvdb")
	if err != nil {
		t.Fatal(err)
	}
	stk.Start()
	w.WarmUp(12)
	m := w.Meter(stk, 5)
	if m.Send(w.RandomSource(), 0, 256) == 0 {
		t.Fatal("send failed")
	}
	w.RunUntil(w.Sim.Now() + 5)
	got := m.Close()
	stk.Stop()
	if got.Delivered == 0 {
		t.Fatal("no deliveries through the facade")
	}
	if got.AudienceOpen != 0 {
		t.Fatalf("metered send left %d audience entries behind", got.AudienceOpen)
	}
}

// TestFacadeQoSReconciledOnHeadChange: a session opened through the
// facade's manager must give its bandwidth back when a cluster head it
// reserved on is replaced, with nobody calling Reconcile by hand. The
// manager hvdb.QoS hands out is the stack's own, which the stack
// reconciles on every cluster-head change; the NewQoS constructor this
// accessor replaced built a second manager that no hook knew about, and
// its reservations stayed on the demoted head until Close.
func TestFacadeQoSReconciledOnHeadChange(t *testing.T) {
	spec := DefaultSpec()
	spec.Seed = 5
	spec.Nodes = 80
	spec.Groups = 1
	spec.MembersPerGroup = 8
	spec.Mobility = Static
	w, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	stk, err := w.Protocol("hvdb")
	if err != nil {
		t.Fatal(err)
	}
	stk.Start()
	defer stk.Stop()
	w.WarmUp(14)
	qm := QoS(stk)
	if qm == nil {
		t.Fatal("hvdb arm has no QoS manager")
	}
	s, err := qm.Open(w.RandomSource(), 0, 50e3, HardQoS)
	if err != nil {
		t.Fatalf("hard admission: %v", err)
	}
	victim := w.Net.Node(s.Reserved[0])
	if victim.Capacity().Utilization() == 0 {
		t.Fatal("victim holds no reservation before failure")
	}
	victim.Fail()
	w.CM.Elect()
	if got := victim.Capacity().Utilization(); got != 0 {
		t.Fatalf("failed cluster head still holds %.4f of its capacity reserved after the election", got)
	}
	if flooding, err := w.Protocol("flooding"); err != nil || QoS(flooding) != nil {
		t.Fatalf("flooding arm: QoS = %v, err = %v; want nil manager", QoS(flooding), err)
	}
}

func TestFacadeExperimentList(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) != 14 { // f1..f6, c1..c6, scale, stress
		t.Fatalf("experiments %d want 14", len(ids))
	}
	for _, id := range ids {
		if ExperimentTitle(id) == "" {
			t.Fatalf("no title for %s", id)
		}
	}
}

func TestFacadeRunExperiment(t *testing.T) {
	var b strings.Builder
	if err := RunExperiment(&b, "f3", QuickOptions()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "0000 0001 0100 0101") {
		t.Fatalf("figure 3 output missing label row:\n%s", b.String())
	}
	if err := RunExperiment(&b, "nope", QuickOptions()); err == nil {
		t.Fatal("unknown experiment should error")
	}
}

func TestFacadeOptions(t *testing.T) {
	if FullOptions().Scale != 1 {
		t.Fatal("full options scale")
	}
	if QuickOptions().Scale >= 1 {
		t.Fatal("quick options should be reduced")
	}
}
