package protocol_test

import (
	"encoding/binary"
	"hash/fnv"
	"reflect"
	"testing"

	"repro/internal/des"
	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/qos"
	"repro/internal/scenario"
)

func TestNamesCoverAllArms(t *testing.T) {
	want := []string{"cbt", "dsm", "flooding", "hvdb", "pbm", "spbm"}
	if got := protocol.Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v want %v", got, want)
	}
}

func TestBuildUnknown(t *testing.T) {
	if _, err := protocol.Build("nope", protocol.Deps{}); err == nil {
		t.Fatal("unknown arm should error")
	}
}

func TestHVDBNeedsPlanes(t *testing.T) {
	if _, err := protocol.Build("hvdb", protocol.Deps{}); err == nil {
		t.Fatal("hvdb arm without planes should error")
	}
}

// buildWorld wires a small static world for arm-level tests.
func buildWorld(t *testing.T) *scenario.World {
	t.Helper()
	spec := scenario.DefaultSpec()
	spec.Seed = 2
	spec.Nodes = 60
	spec.Groups = 1
	spec.MembersPerGroup = 8
	spec.Mobility = scenario.Static
	w, err := scenario.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestStackContract drives every arm through the full Stack surface on
// its own world and checks the uniform accounting: Sent counts
// successful sends, Deliveries observes exactly what Stats().Delivered
// counts, and members enrolled by the world actually receive.
func TestStackContract(t *testing.T) {
	for _, name := range protocol.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			w := buildWorld(t)
			stk, err := w.Protocol(name)
			if err != nil {
				t.Fatal(err)
			}
			stk.Start()
			w.WarmUp(12)

			members := make(map[network.NodeID]bool)
			for _, id := range w.Members[0] {
				members[id] = true
			}
			observed := 0
			stk.Deliveries(func(member network.NodeID, uid uint64, born des.Time, hops int) {
				observed++
				if !members[member] {
					t.Errorf("delivery to non-member %d", member)
				}
			})
			sends := 0
			for i := 0; i < 4; i++ {
				if stk.Send(w.RandomSource(), 0, 256) != 0 {
					sends++
				}
				w.Sim.RunUntil(w.Sim.Now() + 1)
			}
			w.Sim.RunUntil(w.Sim.Now() + 5)
			stk.Stop()

			st := stk.Stats()
			if int(st.Sent) != sends {
				t.Fatalf("Stats().Sent = %d want %d", st.Sent, sends)
			}
			if int(st.Delivered) != observed {
				t.Fatalf("Stats().Delivered = %d but observer saw %d", st.Delivered, observed)
			}
			if sends == 0 || observed == 0 {
				t.Fatalf("arm moved no traffic (sends %d, deliveries %d)", sends, observed)
			}
		})
	}
}

// TestHVDBQoSPlane checks the hvdb arm exposes its session-admission
// plane through the QoSCapable surface.
func TestHVDBQoSPlane(t *testing.T) {
	w := buildWorld(t)
	stk, err := w.Protocol("hvdb")
	if err != nil {
		t.Fatal(err)
	}
	stk.Start()
	w.WarmUp(12)
	qc, ok := stk.(protocol.QoSCapable)
	if !ok {
		t.Fatal("hvdb arm should be QoSCapable")
	}
	if _, err := qc.QoS().Open(w.RandomSource(), 0, 50e3, qos.Soft); err != nil {
		t.Fatalf("soft session: %v", err)
	}
	if got := stk.Stats().QoSAdmitted; got != 1 {
		t.Fatalf("Stats().QoSAdmitted = %d want 1", got)
	}
	stk.Stop()
}

// orderRun sends eight packets half a second apart from one source on a
// 64-node mobile, lossy world (128 radios with the anchor grid, so a
// per-packet node bitset spans two words). It returns the
// executed-event count, the arm's Delivered counter and an FNV-1a hash
// of the observed (member, uid) delivery sequence.
func orderRun(t *testing.T, arm string) [3]uint64 {
	t.Helper()
	spec := scenario.DefaultSpec()
	spec.Seed = 5
	spec.Nodes = 64
	spec.Groups = 1
	spec.MembersPerGroup = 8
	spec.LossProb = 0.05
	w, err := scenario.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	stk, err := w.Protocol(arm)
	if err != nil {
		t.Fatal(err)
	}
	stk.Start()
	w.WarmUp(6)
	h := fnv.New64a()
	stk.Deliveries(func(member network.NodeID, uid uint64, _ des.Time, _ int) {
		var b [16]byte
		binary.LittleEndian.PutUint64(b[:8], uint64(member))
		binary.LittleEndian.PutUint64(b[8:], uid)
		h.Write(b[:])
	})
	src := w.RandomSource()
	for i := 0; i < 8; i++ {
		stk.Send(src, 0, 256)
		w.Sim.RunUntil(w.Sim.Now() + 0.5)
	}
	w.Sim.RunUntil(w.Sim.Now() + 3)
	stk.Stop()
	return [3]uint64{w.Sim.Executed(), stk.Stats().Delivered, h.Sum64()}
}

// TestBaselineOrderIdentity pins the three flooding arms' event count,
// delivery count and delivery order to the values recorded on abb977d,
// when duplicate suppression was a uid → map[NodeID]bool table per
// protocol: the per-packet bitsets that replaced the tables must take
// the same decisions in the same order (every rebroadcast draws from the
// sender's loss stream, so one flipped decision moves all three).
func TestBaselineOrderIdentity(t *testing.T) {
	want := map[string][3]uint64{
		"flooding": {8476, 64, 0xa4395bd600342e25},
		"dsm":      {724872, 62, 0x8d9758e7a9584e53},
		"pbm":      {46395, 53, 0xd5e601f583fd37ae},
	}
	for _, arm := range []string{"flooding", "dsm", "pbm"} {
		if got := orderRun(t, arm); got != want[arm] {
			t.Errorf("%s: executed/delivered/sequence hash = {%d, %d, %#x}, recorded {%d, %d, %#x}",
				arm, got[0], got[1], got[2], want[arm][0], want[arm][1], want[arm][2])
		}
	}
}

// TestHVDBHopIdentity pins the hvdb arm's event count, delivery count
// and (member, uid, logical hops) delivery sequence to the values
// recorded on 8a0dff4, when every forwarding CH allocated a header to
// carry the hop count. The world has no anchors, so mobile CH-capable
// nodes hand cluster heads over while the traffic is on the air, and it
// spans four hypercubes with lossy radios: every tier of the forwarding
// path, cube entry, intra-cube relay and local broadcast, has to carry
// each copy's own count.
func TestHVDBHopIdentity(t *testing.T) {
	spec := scenario.DefaultSpec()
	spec.Seed = 3
	spec.Nodes = 160
	spec.AnchorCHs = false
	spec.CHCapableFrac = 0.5
	spec.MaxSpeed = 10
	spec.Pause = 0
	spec.Groups = 1
	spec.MembersPerGroup = 16
	spec.LossProb = 0.05
	w, err := scenario.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	if w.Scheme.NumHypercubes() < 2 {
		t.Fatalf("%d hypercubes: the mesh tier would carry nothing", w.Scheme.NumHypercubes())
	}
	stk, err := w.Protocol("hvdb")
	if err != nil {
		t.Fatal(err)
	}
	stk.Start()
	w.WarmUp(10)
	h := fnv.New64a()
	maxHops := 0
	stk.Deliveries(func(member network.NodeID, uid uint64, _ des.Time, hops int) {
		var b [24]byte
		binary.LittleEndian.PutUint64(b[:8], uint64(member))
		binary.LittleEndian.PutUint64(b[8:16], uid)
		binary.LittleEndian.PutUint64(b[16:], uint64(hops))
		h.Write(b[:])
		maxHops = max(maxHops, hops)
	})
	changes := w.CM.Changes()
	for i := 0; i < 24; i++ {
		stk.Send(w.RandomSource(), 0, 256)
		w.Sim.RunUntil(w.Sim.Now() + 0.5)
	}
	w.Sim.RunUntil(w.Sim.Now() + 3)
	stk.Stop()
	if w.CM.Changes() == changes {
		t.Fatal("no cluster head changed during the traffic: the handover case is not exercised")
	}
	if maxHops < 2 {
		t.Fatalf("longest delivery took %d logical hops: no copy was relayed", maxHops)
	}
	got := [3]uint64{w.Sim.Executed(), w.MC.Delivered, h.Sum64()}
	want := [3]uint64{203680, 177, 0x91e16a7d3159f22c}
	if got != want {
		t.Errorf("executed/delivered/sequence hash = {%d, %d, %#x}, recorded {%d, %d, %#x}",
			got[0], got[1], got[2], want[0], want[1], want[2])
	}
}
