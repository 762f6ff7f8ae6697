package scenario

import (
	"math"
	"testing"

	"repro/internal/des"
	"repro/internal/membership"
	"repro/internal/network"
	"repro/internal/protocol"
)

func TestBuildDefault(t *testing.T) {
	w, err := Build(DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	if w.Net.Len() != 64+200 {
		t.Fatalf("nodes %d want 264 (64 anchors + 200 ordinary)", w.Net.Len())
	}
	if len(w.Anchors) != 64 || len(w.Ordinary) != 200 {
		t.Fatalf("anchors %d ordinary %d", len(w.Anchors), len(w.Ordinary))
	}
	if w.Scheme.NumHypercubes() != 4 {
		t.Fatalf("hypercubes %d want 4", w.Scheme.NumHypercubes())
	}
	if len(w.Members[0]) != 10 {
		t.Fatalf("group members %d want 10", len(w.Members[0]))
	}
	// Anchors guarantee every VC has a CH after the initial election.
	if got := len(w.CM.HeadSlots()); got != 64 {
		t.Fatalf("clusters headed %d want 64", got)
	}
}

// TestBuildValidation: every out-of-range spec is refused with an
// error — the oversize ones before Build allocates, or this test would
// take the machine down rather than fail.
func TestBuildValidation(t *testing.T) {
	for name, mutate := range map[string]func(*Spec){
		"zero arena":         func(s *Spec) { s.ArenaSize = 0 },
		"NaN arena":          func(s *Spec) { s.ArenaSize = math.NaN() },
		"infinite arena":     func(s *Spec) { s.ArenaSize = math.Inf(1) },
		"absurd dimension":   func(s *Spec) { s.Dim = 99 },
		"zero dimension":     func(s *Spec) { s.Dim = 0 },
		"NaN max speed":      func(s *Spec) { s.MaxSpeed = math.NaN() },
		"NaN min speed":      func(s *Spec) { s.MinSpeed = math.NaN() },
		"infinite max speed": func(s *Spec) { s.MaxSpeed = math.Inf(1) },
		"infinite min speed": func(s *Spec) { s.MinSpeed = math.Inf(1) },
		"negative max speed": func(s *Spec) { s.MaxSpeed = -1 },
		"negative min speed": func(s *Spec) { s.MinSpeed = -1 },
		"10^12-cell grid":    func(s *Spec) { s.ArenaSize, s.CellSize = 1e7, 10 },
		"10^12 nodes":        func(s *Spec) { s.Nodes = 1e12 },
		"10^12 memberships":  func(s *Spec) { s.Groups, s.MembersPerGroup = 1e6, 1e6 },
		"overflowing groups": func(s *Spec) { s.Groups, s.MembersPerGroup = math.MaxInt, math.MaxInt },
	} {
		bad := DefaultSpec()
		mutate(&bad)
		if _, err := Build(bad); err == nil {
			t.Errorf("%s: Build accepted %+v", name, bad)
		}
	}
	// The largest world the repository records stays buildable.
	mega := DefaultSpec()
	mega.Nodes, mega.ArenaSize, mega.CellSize = 1000000, 140000, 2500
	if err := mega.Validate(); err != nil {
		t.Errorf("the scale sweep's 1M world is refused: %v", err)
	}
	// hvdbsim -speed 0.5 runs waypoint mobility with min 1 and max 0.5
	// m/s; a min above the max is not an error.
	slow := DefaultSpec()
	slow.MinSpeed, slow.MaxSpeed = 1, 0.5
	if err := slow.Validate(); err != nil {
		t.Errorf("min speed above max speed is refused: %v", err)
	}
}

func TestBuildDeterministic(t *testing.T) {
	spec := DefaultSpec()
	spec.Nodes = 50
	a, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.Net.Len(); i++ {
		pa := a.Net.Node(network.NodeID(i)).TruePos()
		pb := b.Net.Node(network.NodeID(i)).TruePos()
		if pa != pb {
			t.Fatalf("node %d placed at %v vs %v for same seed", i, pa, pb)
		}
	}
	if len(a.Members[0]) != len(b.Members[0]) {
		t.Fatal("group assignment not deterministic")
	}
	for i := range a.Members[0] {
		if a.Members[0][i] != b.Members[0][i] {
			t.Fatal("group members differ across identical builds")
		}
	}
}

func TestMobilityKinds(t *testing.T) {
	for _, kind := range []MobilityKind{Static, Waypoint, Walk, GaussMarkov, GroupMotion, Manhattan} {
		spec := DefaultSpec()
		spec.Nodes = 20
		spec.Mobility = kind
		w, err := Build(spec)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		w.Sim.RunUntil(5)
		for _, id := range w.Ordinary {
			p := w.Net.Node(id).TruePos()
			if p.X < 0 || p.X > spec.ArenaSize || p.Y < 0 || p.Y > spec.ArenaSize {
				t.Fatalf("%s: node %d escaped arena: %v", kind, id, p)
			}
		}
	}
}

func TestNoAnchorsCapableFraction(t *testing.T) {
	spec := DefaultSpec()
	spec.AnchorCHs = false
	spec.CHCapableFrac = 0.5
	spec.Nodes = 200
	w, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Anchors) != 0 {
		t.Fatal("anchors present despite AnchorCHs=false")
	}
	capable := 0
	for _, n := range w.Net.Nodes() {
		if n.CHCapable {
			capable++
		}
	}
	if capable < 60 || capable > 140 {
		t.Fatalf("capable count %d far from half of 200", capable)
	}
}

func TestStartStopAndWarmUp(t *testing.T) {
	spec := DefaultSpec()
	spec.Nodes = 30
	w, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	stk := startHVDB(t, w)
	w.WarmUp(5)
	if w.Sim.Now() != 5 {
		t.Fatalf("warm-up ended at %v", w.Sim.Now())
	}
	if w.Net.Stats().ControlBytes != 0 {
		t.Fatal("WarmUp should reset traffic counters")
	}
	stk.Stop()
	// Let in-flight packets drain, then the periodic planes must be
	// quiet: no new events in a later window.
	w.Sim.RunUntil(10)
	before := w.Sim.Executed()
	w.Sim.RunUntil(30)
	if got := w.Sim.Executed() - before; got != 0 {
		t.Fatalf("stack still active after Stop: %d events in the quiet window", got)
	}
}

func TestCBRSchedulesExactCount(t *testing.T) {
	spec := DefaultSpec()
	spec.Nodes = 10
	w, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	w.CBR(func() uint64 { n++; return uint64(n) }, 0.5, 7)
	w.Sim.RunUntil(100)
	if n != 7 {
		t.Fatalf("CBR fired %d times want 7", n)
	}
}

func TestFailRandomAnchors(t *testing.T) {
	w, err := Build(DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	failed := w.FailRandomAnchors(10)
	if len(failed) != 10 {
		t.Fatalf("failed %d want 10", len(failed))
	}
	for _, id := range failed {
		if w.Net.Node(id).Up() {
			t.Fatalf("node %d still up", id)
		}
	}
}

func TestProtocolArms(t *testing.T) {
	spec := DefaultSpec()
	spec.Nodes = 40
	spec.Groups = 1
	spec.MembersPerGroup = 5
	for _, name := range protocol.Names() {
		w, err := Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		p, err := w.Protocol(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.Name() != name {
			t.Fatalf("name %q want %q", p.Name(), name)
		}
		p.Start()
		if name == "hvdb" {
			w.WarmUp(12) // the backbone needs convergence before sends start
		}
		uid := p.Send(w.RandomSource(), 0, 100)
		w.Sim.RunUntil(w.Sim.Now() + 10)
		p.Stop()
		if uid != 0 && p.Stats().Sent == 0 {
			t.Fatalf("%s: Stats().Sent not counted", name)
		}
	}
	w, _ := Build(spec)
	if _, err := w.Protocol("nope"); err == nil {
		t.Fatal("unknown protocol arm should error")
	}
}

func TestGroupMembershipJoined(t *testing.T) {
	spec := DefaultSpec()
	spec.Groups = 3
	spec.MembersPerGroup = 6
	spec.Nodes = 60
	w, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 3; g++ {
		if len(w.Members[membership.Group(g)]) != 6 {
			t.Fatalf("group %d has %d members", g, len(w.Members[membership.Group(g)]))
		}
		for _, id := range w.Members[membership.Group(g)] {
			found := false
			for _, jg := range w.MS.GroupsOf(id) {
				if jg == membership.Group(g) {
					found = true
				}
			}
			if !found {
				t.Fatalf("member %d not joined to group %d in membership service", id, g)
			}
		}
	}
}

func TestRandomSourceIsOrdinary(t *testing.T) {
	w, err := Build(DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		src := w.RandomSource()
		if w.Net.Node(src).CHCapable {
			t.Fatal("random source should be an ordinary node when available")
		}
	}
}

func TestGPSErrorSpec(t *testing.T) {
	spec := DefaultSpec()
	spec.Nodes = 30
	spec.GPSError = 20
	w, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	// With 20 m positioning error, reported fixes differ from truth for
	// most nodes most of the time.
	differs := 0
	for _, n := range w.Net.Nodes() {
		if n.Fix().Pos != n.TruePos() {
			differs++
		}
	}
	if differs < w.Net.Len()/2 {
		t.Fatalf("only %d/%d noisy fixes differ from truth", differs, w.Net.Len())
	}
	// The stack must still converge and deliver despite the error.
	stk := startHVDB(t, w)
	w.WarmUp(12)
	delivered := 0
	stk.Deliveries(func(network.NodeID, uint64, des.Time, int) { delivered++ })
	stk.Send(w.RandomSource(), 0, 128)
	w.Sim.RunUntil(w.Sim.Now() + 5)
	stk.Stop()
	if delivered == 0 {
		t.Fatal("no delivery under 20 m GPS error")
	}
}
