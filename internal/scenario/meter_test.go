package scenario

import (
	"testing"

	"repro/internal/georoute"
	"repro/internal/network"
	"repro/internal/protocol"
)

// fakeStack is a protocol.Stack that puts nothing on the air: the test
// makes the deliveries by hand.
type fakeStack struct {
	on   protocol.DeliverFunc
	uids uint64
}

func (f *fakeStack) Name() string                         { return "fake" }
func (f *fakeStack) Start()                               {}
func (f *fakeStack) Stop()                                {}
func (f *fakeStack) Join(network.NodeID, protocol.Group)  {}
func (f *fakeStack) Leave(network.NodeID, protocol.Group) {}
func (f *fakeStack) Deliveries(on protocol.DeliverFunc)   { f.on = on }
func (f *fakeStack) Stats() protocol.Stats                { return protocol.Stats{} }

func (f *fakeStack) Send(network.NodeID, protocol.Group, int) uint64 {
	f.uids++
	return f.uids
}

// deliver reports uid as having reached member, as an arm would.
func (f *fakeStack) deliver(w *World, member network.NodeID, uid uint64) {
	if f.on != nil {
		f.on(member, uid, w.Sim.Now(), 1)
	}
}

// TestMeterAccounting walks one meter through the cases the end-to-end
// tests cannot pin down, on a stack whose deliveries the test controls.
func TestMeterAccounting(t *testing.T) {
	spec := DefaultSpec()
	spec.Nodes = 20
	spec.Groups = 1
	spec.MembersPerGroup = 4
	spec.Mobility = Static
	w, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	fs := &fakeStack{}
	const ttl = 5
	m := w.Meter(fs, ttl)
	members := w.Members[0]
	src := w.RandomSource()

	// A member that left before the send is not owed the packet: reaching
	// it anyway is a stale delivery, not a delivery.
	m.Leave(members[0], 0)
	first := m.Send(src, 0, 64)
	fs.deliver(w, members[0], first)
	fs.deliver(w, members[1], first)
	if m.c.Expected != 3 || m.c.Delivered != 1 || m.c.Stale != 1 {
		t.Fatalf("after one stale and one owed delivery: expected %d delivered %d stale %d; want 3, 1, 1",
			m.c.Expected, m.c.Delivered, m.c.Stale)
	}

	// A member already counted is no longer owed the packet: a second
	// delivery to it is stale as well.
	fs.deliver(w, members[1], first)
	if m.c.Delivered != 1 || m.c.Stale != 2 {
		t.Fatalf("after a repeat delivery: delivered %d stale %d; want 1, 2", m.c.Delivered, m.c.Stale)
	}

	// Two members never get it. Once the TTL has passed the next send
	// releases the entry, and a straggler no longer counts.
	w.RunUntil(w.Sim.Now() + ttl)
	second := m.Send(src, 0, 64)
	if open := len(m.audience); open != 1 {
		t.Fatalf("after the TTL: %d audience entries open, want 1", open)
	}
	fs.deliver(w, members[2], first)
	if m.c.Delivered != 1 {
		t.Fatalf("a delivery after the TTL was counted: delivered %d", m.c.Delivered)
	}

	// A fully accounted packet is released at its last delivery.
	for _, id := range members[1:] {
		fs.deliver(w, id, second)
	}
	if open := len(m.audience); open != 0 {
		t.Fatalf("fully accounted: %d audience entries open, want 0", open)
	}
	w.RunUntil(w.Sim.Now() + ttl)
	third := m.Send(src, 0, 64) // still inside its TTL at Close
	got := m.Close()
	if got.Sent != 3 || got.Expected != 9 || got.Delivered != 4 || got.Stale != 2 {
		t.Fatalf("counts %+v; want 3 sent, 9 expected, 4 delivered, 2 stale", got)
	}
	if got.AudienceOpen != 1 {
		t.Fatalf("closed inside the last packet's TTL: %d audience entries open, want 1", got.AudienceOpen)
	}

	// Close detached the first meter; a second one on the same stack
	// owns the observer and is not told about the first one's packets.
	m2 := w.Meter(fs, ttl)
	fs.deliver(w, members[1], third)
	if c := m2.Close(); c.Delivered != 0 || c.Stale != 0 {
		t.Fatalf("second meter counted the first meter's packet: %+v", c)
	}
	if m.c.Delivered != 4 {
		t.Fatalf("closed meter still counting: delivered %d", m.c.Delivered)
	}
}

// TestAudienceBoundedAndReleasedAtTeardown is the audience-map
// counterpart of the pooled-packet leak check: retained per-packet
// audience state must stay proportional to the send rate over one TTL
// window (entries release once fully accounted or on TTL expiry), and
// the map must be empty once the traffic drains. The same 40-packet CBR
// stream is played twice per arm: as a script, and by hand through a
// Meter the way the experiments and hvdbsim drive it.
func TestAudienceBoundedAndReleasedAtTeardown(t *testing.T) {
	// 40 sends over ~20 s: far longer than one TTL window, so a
	// regression back to retain-forever shows up as a peak near the
	// total send count.
	const packets, gap = 40, 0.5
	drivers := []struct {
		name string
		play func(t *testing.T, w *World, stk protocol.Stack) Counts
	}{
		{"script", func(t *testing.T, w *World, stk protocol.Stack) Counts {
			res, err := w.RunScript(stk, &Script{Name: "audience-bound", Directives: []Directive{
				{At: 0, Kind: KindTraffic, Pattern: PatternCBR, Group: 0,
					Interval: gap, Packets: packets, Payload: 256},
			}})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}},
		{"meter", func(t *testing.T, w *World, stk protocol.Stack) Counts {
			m := w.Meter(stk, drainMargin)
			src := w.RandomSource()
			w.CBR(func() uint64 { return m.Send(src, 0, 256) }, gap, packets)
			w.RunUntil(w.Sim.Now() + gap*packets + drainMargin)
			return m.Close()
		}},
	}
	for _, arm := range protocol.Names() {
		t.Run(arm, func(t *testing.T) {
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
					stk, err := w.Protocol(arm)
					if err != nil {
						t.Fatal(err)
					}
					stk.Start()
					w.WarmUp(10)
					res := d.play(t, w, stk)
					if res.Sent == 0 {
						t.Fatal("nothing was sent; the audience checks below would be vacuous")
					}
					if res.AudienceOpen != 0 {
						t.Errorf("audience entries leaked: %d still tracked at teardown", res.AudienceOpen)
					}
					if res.AudiencePeak == 0 {
						t.Error("AudiencePeak = 0: sends were not tracked at all")
					}
					// TTL is 5 s and the send gap 0.5 s, so even if nothing were
					// ever fully accounted the live window holds ~11 entries; give
					// slack for in-flight stragglers but stay far under the total
					// send count.
					if limit := 15; res.AudiencePeak > limit {
						t.Errorf("AudiencePeak = %d for %d sends; want <= %d (entries must be released on the fly, not retained for the run)",
							res.AudiencePeak, res.Sent, limit)
					}
					stk.Stop()
					assertNoPacketLeaks(t, w)
				})
			}
		})
	}
}

// TestMeterCountsOwnWindow: Counts' drop causes, Events, CHChanges and
// Elections cover the meter's window and nothing before it. The
// default world plays partition-heal once to pile up geo drops and CH
// changes ahead of the window, then again under the measured meter,
// whose counts must be exactly the cumulative counters read by hand at
// Close minus those read at open.
func TestMeterCountsOwnWindow(t *testing.T) {
	type cumulative struct {
		drops                      [NumDrops]uint64
		events, changes, elections uint64
	}
	read := func(w *World) cumulative {
		st := w.Net.Stats()
		c := cumulative{events: w.Sim.Executed(), changes: w.CM.Changes(), elections: w.CM.Elections()}
		c.drops[0], c.drops[1] = st.Lost, st.ReceiverDown
		for i, n := range w.BB.Geo().Drops() {
			c.drops[2+i] = n
		}
		c.drops[NumDrops-2], c.drops[NumDrops-1] = w.MC.NoEntryCH, w.MC.QoSBlocked
		return c
	}
	w, err := Build(DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	stk := startHVDB(t, w)
	w.WarmUp(15)
	sc, err := BuiltinScript("partition-heal")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.RunScript(stk, sc); err != nil {
		t.Fatal(err)
	}
	open := read(w)
	if open.drops[2+int(georoute.DropTTL)] == 0 || open.changes == 0 {
		t.Fatalf("no geo TTL drops or CH changes before the window (%+v): the test premise is broken", open)
	}
	res, err := w.RunScript(stk, sc)
	if err != nil {
		t.Fatal(err)
	}
	end := read(w)
	stk.Stop()
	want := cumulative{events: end.events - open.events, changes: end.changes - open.changes, elections: end.elections - open.elections}
	for i := range want.drops {
		want.drops[i] = end.drops[i] - open.drops[i]
	}
	got := cumulative{drops: res.Drops, events: res.Events, changes: res.CHChanges, elections: res.Elections}
	if got != want {
		t.Fatalf("meter counted outside its window:\n  got  %+v\n  want %+v", got, want)
	}
	if got.drops[2+int(georoute.DropTTL)] == 0 || got.changes == 0 || got.events == 0 {
		t.Fatalf("window counts are vacuous: %+v", got)
	}
}
