package scenario

import (
	"testing"

	"repro/internal/network"
	"repro/internal/protocol"
)

// fakeStack is a protocol.Stack that puts nothing on the air: the test
// makes the deliveries by hand and reads back what the meter forgot.
type fakeStack struct {
	on      protocol.DeliverFunc
	uids    uint64
	tracked map[uint64]bool
	forgets map[uint64]int
}

func newFakeStack() *fakeStack {
	return &fakeStack{tracked: map[uint64]bool{}, forgets: map[uint64]int{}}
}

func (f *fakeStack) Name() string                         { return "fake" }
func (f *fakeStack) Start()                               {}
func (f *fakeStack) Stop()                                {}
func (f *fakeStack) Join(network.NodeID, protocol.Group)  {}
func (f *fakeStack) Leave(network.NodeID, protocol.Group) {}
func (f *fakeStack) Deliveries(on protocol.DeliverFunc)   { f.on = on }
func (f *fakeStack) Tracked() int                         { return len(f.tracked) }
func (f *fakeStack) Stats() protocol.Stats                { return protocol.Stats{} }

func (f *fakeStack) Send(network.NodeID, protocol.Group, int) uint64 {
	f.uids++
	f.tracked[f.uids] = true
	return f.uids
}

func (f *fakeStack) Forget(uid uint64) {
	f.forgets[uid]++
	delete(f.tracked, uid)
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
	fs := newFakeStack()
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
	// releases the entry and forgets the uid, and a straggler no longer
	// counts.
	w.RunUntil(w.Sim.Now() + ttl)
	second := m.Send(src, 0, 64)
	if fs.forgets[first] != 1 || fs.Tracked() != 1 {
		t.Fatalf("after the TTL: first uid forgotten %d times, %d uids tracked; want 1 and 1", fs.forgets[first], fs.Tracked())
	}
	fs.deliver(w, members[2], first)
	if m.c.Delivered != 1 {
		t.Fatalf("a delivery after the TTL was counted: delivered %d", m.c.Delivered)
	}

	// A fully accounted packet is forgotten at its last delivery, and not
	// a second time when its TTL comes round.
	for _, id := range members[1:] {
		fs.deliver(w, id, second)
	}
	if fs.forgets[second] != 1 {
		t.Fatalf("fully accounted uid forgotten %d times, want 1", fs.forgets[second])
	}
	w.RunUntil(w.Sim.Now() + ttl)
	third := m.Send(src, 0, 64) // still inside its TTL at Close
	got := m.Close()
	if fs.forgets[second] != 1 {
		t.Fatalf("TTL expiry forgot an already released uid again (%d forgets)", fs.forgets[second])
	}
	if got.Sent != 3 || got.Expected != 9 || got.Delivered != 4 || got.Stale != 2 {
		t.Fatalf("counts %+v; want 3 sent, 9 expected, 4 delivered, 2 stale", got)
	}
	if got.AudienceOpen != 1 || got.FlightsOpen != 1 {
		t.Fatalf("closed inside the last packet's TTL: %d audience entries, %d flights open; want 1 and 1",
			got.AudienceOpen, got.FlightsOpen)
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
			return res.Counts
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
					// Closing an audience entry forgets the packet at the arm, so
					// its per-packet index is empty too.
					if res.FlightsOpen != 0 || stk.Tracked() != 0 {
						t.Errorf("arm still tracks %d packets at teardown (result says %d)", stk.Tracked(), res.FlightsOpen)
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
