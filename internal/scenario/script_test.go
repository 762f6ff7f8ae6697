package scenario

import (
	"reflect"
	"testing"

	"repro/internal/network"
	"repro/internal/protocol"
)

// assertNoPacketLeaks drains the simulator and checks the pooled-packet
// acquire/release balance — the world-teardown leak check.
func assertNoPacketLeaks(t *testing.T, w *World) {
	t.Helper()
	w.Sim.Run()
	if n := w.Net.PooledInFlight(); n != 0 {
		t.Fatalf("pooled-packet leak: %d packets still checked out after teardown", n)
	}
}

// startHVDB builds and starts the hvdb arm on w.
func startHVDB(t testing.TB, w *World) protocol.Stack {
	t.Helper()
	stk, err := w.Protocol("hvdb")
	if err != nil {
		t.Fatal(err)
	}
	stk.Start()
	return stk
}

func TestScriptValidate(t *testing.T) {
	bad := []Directive{
		{At: -1, Kind: KindNodeChurn, Count: 1, Period: 1, Duration: 1},
		{Kind: "warp-drive"},
		{Kind: KindNodeChurn, Count: 0, Period: 1, Duration: 1},
		{Kind: KindNodeChurn, Count: 1, Period: 10, Duration: 2},
		{Kind: KindMemberChurn, Count: 1, Period: 0, Duration: 1},
		{Kind: KindMemberChurn, Count: 1, Period: 1, Duration: 1, Group: -1},
		{Kind: KindTraffic, Pattern: PatternCBR, Packets: 1, Interval: 1, Payload: 64, Group: -2},
		{Kind: KindTraffic, Pattern: PatternCBR, Packets: 0, Interval: 1, Payload: 64},
		{Kind: KindTraffic, Pattern: PatternCBR, Packets: 1, Interval: 1, Payload: 0},
		{Kind: KindTraffic, Pattern: "morse", Packets: 1, Interval: 1, Payload: 64},
		{Kind: KindTraffic, Pattern: PatternPoisson, Packets: 1, Interval: 1, Payload: 64},
		{Kind: KindTraffic, Pattern: PatternOnOff, Packets: 1, Interval: 1, Payload: 64, Duration: 5},
		{Kind: KindTraffic, Pattern: PatternFlash, Packets: 1, Interval: 1, Payload: 64, Duration: 5},
		{Kind: KindRadioLoss, Loss: 1.5, Duration: 1},
		{Kind: KindRadioLoss, Loss: 0.5},
		{Kind: KindPartition},
		{Kind: KindPartition, Duration: 5, Frac: 1},
	}
	for i, d := range bad {
		if err := d.Validate(); err == nil {
			t.Errorf("bad directive %d (%+v) validated", i, d)
		}
	}
	if err := (&Script{Name: "empty"}).Validate(); err == nil {
		t.Error("empty script validated")
	}
}

func TestBuiltinScriptsValid(t *testing.T) {
	for _, name := range BuiltinScripts() {
		s, err := BuiltinScript(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Horizon() <= 0 {
			t.Fatalf("%s: zero horizon", name)
		}
	}
	if _, err := BuiltinScript("nope"); err == nil {
		t.Fatal("unknown built-in should error")
	}
}

func TestParseScript(t *testing.T) {
	src := `{
	  "name": "mini",
	  "directives": [
	    {"at": 0, "kind": "traffic", "pattern": "cbr",
	     "group": 0, "interval": 0.5, "packets": 3, "payload": 128},
	    {"at": 1, "kind": "radio-loss", "loss": 0.2, "duration": 2}
	  ]
	}`
	s, err := ParseScript([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "mini" || len(s.Directives) != 2 {
		t.Fatalf("parsed %+v", s)
	}
	if _, err := ParseScript([]byte(`{"name":"x","directives":[{"kind":"traffic","warp":9}]}`)); err == nil {
		t.Fatal("unknown field should be rejected")
	}
	if _, err := ParseScript([]byte(`{"name":"x","directives":[]}`)); err == nil {
		t.Fatal("empty script should be rejected")
	}
	if _, err := ParseScript([]byte(src + `{"oops":1}`)); err == nil {
		t.Fatal("trailing data after the script should be rejected")
	}
}

func TestRunScriptDeliversAndIsDeterministic(t *testing.T) {
	sc, err := BuiltinScript("churn-storm")
	if err != nil {
		t.Fatal(err)
	}
	run := func() Counts {
		spec := DefaultSpec()
		spec.Seed = 7
		spec.Nodes = 60
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
		w.WarmUp(12)
		res, err := w.RunScript(stk, sc)
		if err != nil {
			t.Fatal(err)
		}
		stk.Stop()
		assertNoPacketLeaks(t, w)
		return res
	}
	a, b := run(), run()
	if a.Sent == 0 || a.Expected == 0 {
		t.Fatalf("script generated no traffic: %+v", a)
	}
	if a.PDR() < 0.5 {
		t.Fatalf("PDR %.2f under churn storm below 0.5 (%d/%d)", a.PDR(), a.Delivered, a.Expected)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("script run not deterministic:\n%+v\n%+v", a, b)
	}
}

func TestScriptRestoresWorldState(t *testing.T) {
	// Deliberately overlapping windows — two radio-loss windows of
	// different levels and two concurrent node-churn bursts — so the
	// restore paths are exercised under composition, not just alone.
	sc := &Script{Name: "restore", Directives: []Directive{
		{At: 0, Kind: KindTraffic, Pattern: PatternCBR, Interval: 0.5, Packets: 4, Payload: 128},
		{At: 0.5, Kind: KindRadioLoss, Loss: 0.9, Duration: 2},
		{At: 1, Kind: KindRadioLoss, Loss: 0.4, Duration: 4},
		{At: 1, Kind: KindPartition, Frac: 0.3, Duration: 3},
		{At: 1, Kind: KindNodeChurn, Count: 2, Period: 1, Duration: 3},
		{At: 2, Kind: KindNodeChurn, Count: 1, Period: 1, Duration: 4},
	}}
	spec := DefaultSpec()
	spec.Seed = 3
	spec.Nodes = 50
	spec.Groups = 1
	spec.MembersPerGroup = 6
	spec.Mobility = Static
	w, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	lossBefore := make([]float64, w.Net.Len())
	for _, n := range w.Net.Nodes() {
		lossBefore[n.ID] = n.Radio.LossProb
	}
	stk, err := w.Protocol("flooding")
	if err != nil {
		t.Fatal(err)
	}
	stk.Start()
	w.WarmUp(2)
	if _, err := w.RunScript(stk, sc); err != nil {
		t.Fatal(err)
	}
	stk.Stop()
	// Every window must have closed: all nodes back up, loss restored.
	for _, n := range w.Net.Nodes() {
		if !n.Up() {
			t.Fatalf("node %d still down after partition/churn windows closed", n.ID)
		}
		if n.Radio.LossProb != lossBefore[n.ID] {
			t.Fatalf("node %d loss %g not restored to %g", n.ID, n.Radio.LossProb, lossBefore[n.ID])
		}
	}
	assertNoPacketLeaks(t, w)
}

// TestOnOffIntervalLongerThanPeriod: a send gap that overshoots whole
// on/off cycles must resume at a future on phase, never schedule into
// the past (this panicked the kernel before the catch-up loop).
func TestOnOffIntervalLongerThanPeriod(t *testing.T) {
	sc := &Script{Name: "overshoot", Directives: []Directive{
		{At: 0, Kind: KindTraffic, Pattern: PatternOnOff, Interval: 2.5, Period: 1, Duration: 12, Packets: 4, Payload: 64},
	}}
	spec := DefaultSpec()
	spec.Nodes = 30
	spec.Mobility = Static
	w, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	stk, err := w.Protocol("flooding")
	if err != nil {
		t.Fatal(err)
	}
	stk.Start()
	w.WarmUp(2)
	res, err := w.RunScript(stk, sc)
	if err != nil {
		t.Fatal(err)
	}
	stk.Stop()
	if res.Sent == 0 {
		t.Fatal("overshooting on/off generator sent nothing")
	}
}

// TestRunScriptRejectsUnknownGroup: group references are validated
// against the world, not just statically.
func TestRunScriptRejectsUnknownGroup(t *testing.T) {
	sc := &Script{Name: "typo", Directives: []Directive{
		{At: 0, Kind: KindTraffic, Pattern: PatternCBR, Group: 7, Interval: 1, Packets: 2, Payload: 64},
	}}
	spec := DefaultSpec()
	spec.Nodes = 20
	spec.Mobility = Static
	w, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	stk, err := w.Protocol("flooding")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.RunScript(stk, sc); err == nil {
		t.Fatal("group 7 on a 1-group world should be rejected")
	}
}

// TestScriptMemberChurnTracksAudience: flooding reaches every connected
// node, so delivery against the *current* membership must stay
// near-perfect while one member a second is swapped out — whether the
// churn is a script directive or done by hand through the meter, the
// way experiment c6 does it.
func TestScriptMemberChurnTracksAudience(t *testing.T) {
	drivers := []struct {
		name string
		play func(t *testing.T, w *World, stk protocol.Stack) Counts
	}{
		{"script", func(t *testing.T, w *World, stk protocol.Stack) Counts {
			res, err := w.RunScript(stk, &Script{Name: "churny", Directives: []Directive{
				{At: 0, Kind: KindTraffic, Pattern: PatternCBR, Interval: 1, Packets: 8, Payload: 128},
				{At: 0.5, Kind: KindMemberChurn, Count: 1, Period: 1, Duration: 6},
			}})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}},
		{"meter", func(t *testing.T, w *World, stk protocol.Stack) Counts {
			m := w.Meter(stk, drainMargin)
			src := w.RandomSource()
			w.CBR(func() uint64 { return m.Send(src, 0, 128) }, 1, 8)
			next := 0 // ordinary nodes join in build order
			churn := w.Sim.Every(0.5, 1, func() {
				leaver := network.NoNode
				for id := range m.Members(0) {
					if leaver == network.NoNode || id < leaver {
						leaver = id
					}
				}
				m.Leave(leaver, 0)
				for m.Members(0)[w.Ordinary[next]] {
					next++
				}
				m.Join(w.Ordinary[next], 0)
			})
			w.RunUntil(w.Sim.Now() + 8 + drainMargin)
			churn.Stop()
			return m.Close()
		}},
	}
	for _, d := range drivers {
		t.Run(d.name, func(t *testing.T) {
			spec := DefaultSpec()
			spec.Seed = 11
			spec.Nodes = 60
			spec.Groups = 1
			spec.MembersPerGroup = 8
			spec.Mobility = Static
			w, err := Build(spec)
			if err != nil {
				t.Fatal(err)
			}
			stk, err := w.Protocol("flooding")
			if err != nil {
				t.Fatal(err)
			}
			stk.Start()
			w.WarmUp(2)
			res := d.play(t, w, stk)
			stk.Stop()
			if res.Sent != 8 || res.Expected != 8*8 {
				t.Fatalf("%d sends expecting %d deliveries; want 8 sends to a group that stays at 8", res.Sent, res.Expected)
			}
			if res.PDR() < 0.9 {
				t.Fatalf("flooding PDR %.2f under member churn (%d/%d)", res.PDR(), res.Delivered, res.Expected)
			}
			assertNoPacketLeaks(t, w)
		})
	}
}
