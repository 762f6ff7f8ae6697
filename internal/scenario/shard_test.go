package scenario

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/des"
)

// shardSpec is a small lossy world that exercises loss draws, capacity
// serialization, and mobility — everything whose ordering the sharded
// kernel must preserve.
func shardSpec(shards int) Spec {
	spec := DefaultSpec()
	spec.Nodes = 60
	spec.MembersPerGroup = 10
	spec.LossProb = 0.05
	spec.Mobility = Waypoint
	spec.Shards = shards
	return spec
}

// shardScript mixes traffic with the directives that must fence windows:
// a mid-run partition (global topology event) plus member churn.
func shardScript() *Script {
	return &Script{
		Name: "shard-mix",
		Directives: []Directive{
			{Kind: KindTraffic, At: 0, Group: 0, Pattern: PatternCBR, Count: 1, Packets: 12, Interval: 0.5, Payload: 256, Duration: 8},
			{Kind: KindMemberChurn, At: 2, Group: 0, Count: 1, Period: 1, Duration: 3},
			{Kind: KindPartition, At: 4, Duration: 2, Frac: 0.25},
		},
	}
}

// shardFingerprint runs the script on a fresh world and reduces the run
// to a string whose equality is bit equality of every observable.
func shardFingerprint(t *testing.T, spec Spec, requireSharded bool) string {
	t.Helper()
	w, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	if requireSharded {
		if w.Eng == nil {
			t.Fatalf("shards=%d world fell back to serial: %s", spec.Shards, w.ShardNote)
		}
	} else if spec.Shards <= 1 && w.Eng != nil {
		t.Fatal("serial spec built a sharded engine")
	}
	stk, err := w.Protocol("hvdb")
	if err != nil {
		t.Fatal(err)
	}
	stk.Start()
	w.WarmUp(10)
	res, err := w.RunScript(stk, shardScript())
	if err != nil {
		t.Fatal(err)
	}
	stk.Stop()
	w.RunUntil(w.Sim.Now() + 5) // drain
	if n := w.Net.PooledInFlight(); n != 0 {
		t.Fatalf("shards=%d: %d pooled packets leaked", spec.Shards, n)
	}
	return fmt.Sprintf("sent=%d expected=%d delivered=%d stale=%d mean=%v p50=%v p95=%v ctrl=%v jain=%v events=%d",
		res.Sent, res.Expected, res.Delivered, res.Stale,
		res.MeanDelay, res.P50Delay, res.P95Delay, res.CtrlPerNodeS, res.Jain,
		w.Sim.Executed())
}

func TestShardedBuildEnables(t *testing.T) {
	w, err := Build(shardSpec(4))
	if err != nil {
		t.Fatal(err)
	}
	if w.Eng == nil {
		t.Fatalf("sharding declined: %s", w.ShardNote)
	}
	if got := w.Eng.Shards(); got != 4 {
		t.Fatalf("shards %d want 4", got)
	}
}

// TestShardCountByteIdentical is the tentpole contract: the same spec
// and script produce byte-identical results and executed-event counts
// at every shard count.
func TestShardCountByteIdentical(t *testing.T) {
	base := shardFingerprint(t, shardSpec(1), false)
	for _, k := range []int{2, 4} {
		if got := shardFingerprint(t, shardSpec(k), true); got != base {
			t.Fatalf("shards=%d diverged from serial:\n  serial: %s\n  sharded: %s", k, base, got)
		}
	}
}

// TestShardDropCountsIndependent plays two lossy built-in scripts on
// the default world (the one hvdbsim runs with no flags) at shards 1
// and 2: every per-cause drop count the meter reports must match, its
// geo causes must sum to what Router.Dropped gained over the script,
// and the counts must not be vacuous — partition-heal loses packets to
// the radio and to geo TTL expiry, churn-storm to receivers that went
// down in flight.
func TestShardDropCountsIndependent(t *testing.T) {
	run := func(script string, shards int) [NumDrops]uint64 {
		spec := DefaultSpec()
		spec.Shards = shards
		w, err := Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		if shards > 1 && w.Eng == nil {
			t.Fatalf("sharding declined: %s", w.ShardNote)
		}
		stk := startHVDB(t, w)
		w.WarmUp(15)
		sc, err := BuiltinScript(script)
		if err != nil {
			t.Fatal(err)
		}
		dropped := w.BB.Geo().Dropped()
		res, err := w.RunScript(stk, sc)
		if err != nil {
			t.Fatal(err)
		}
		stk.Stop()
		var geo uint64
		for _, n := range res.Drops[2 : NumDrops-2] {
			geo += n
		}
		if want := w.BB.Geo().Dropped() - dropped; geo != want {
			t.Fatalf("%s shards=%d: geo causes sum to %d, Dropped gained %d", script, shards, geo, want)
		}
		return res.Drops
	}
	causes := DropCauses()
	for _, tc := range []struct {
		script string
		want   []string // causes that must be nonzero
	}{
		{"partition-heal", []string{"radio loss", "geo ttl"}},
		{"churn-storm", []string{"receiver down"}},
	} {
		serial := run(tc.script, 1)
		if got := run(tc.script, 2); got != serial {
			t.Fatalf("%s: drop counts diverged:\n  serial:   %v\n  shards=2: %v", tc.script, serial, got)
		}
		for _, c := range tc.want {
			i := slices.Index(causes[:], c)
			if i < 0 || serial[i] == 0 {
				t.Errorf("%s: no %q drops counted: %v", tc.script, c, serial)
			}
		}
	}
}

// TestShardedSerialUnchanged: a Shards=1 spec must not construct an
// engine at all — the serial path is literally the old code.
func TestShardedSerialUnchanged(t *testing.T) {
	w, err := Build(shardSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if w.Eng != nil || w.ShardNote != "" {
		t.Fatalf("serial world has engine=%v note=%q", w.Eng, w.ShardNote)
	}
}

// TestBroadcastStraddlesShardCorners plants receivers in all four
// stripes of a shards=4 world within one radio range of a central
// sender: the (serial) broadcast must reach every stripe and the
// sharded run must match the serial one exactly.
func TestBroadcastStraddlesShardCorners(t *testing.T) {
	run := func(shards int) string {
		spec := shardSpec(shards)
		spec.Nodes = 40
		w, err := Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		if shards > 1 && w.Eng == nil {
			t.Fatalf("sharding declined: %s", w.ShardNote)
		}
		startHVDB(t, w)
		w.RunUntil(15)
		// The periodic beacon/hello planes broadcast continuously; after a
		// window the per-kind byte ledger captures every broadcast
		// delivered anywhere in the arena, including across stripe
		// boundaries.
		st := w.Net.Stats()
		return fmt.Sprintf("ctrl=%d data=%d lost=%d events=%d",
			st.ControlBytes, st.DataBytes, st.Lost, w.Sim.Executed())
	}
	serial := run(1)
	if got := run(4); got != serial {
		t.Fatalf("broadcast accounting diverged:\n  serial: %s\n  shards=4: %s", serial, got)
	}
}

// TestEventAtWindowBarrier schedules lane work exactly at a window
// boundary: with lookahead L = 1 the first window covers [0, 1]
// inclusive — events at exactly tmin+L may run in it, which is sound
// because any intent logged during the window lands at a strictly
// larger (at, seq) key (intent seqs are reserved at the barrier, after
// every pre-scheduled seq). Each lane records its own trace (lane 0
// runs inline, lane 1 on a worker; a shared slice would race) with the
// lane clock, which must read the event's own timestamp, never the
// stale serial clock.
func TestEventAtWindowBarrier(t *testing.T) {
	sim := des.New()
	eng := des.NewSharded(sim, 2, 1.0)
	traces := make([][]string, 2)
	hop := func(lane int, label string, at des.Time) {
		eng.ScheduleLaneDirect(lane, at, func(any, uint64) {
			traces[lane] = append(traces[lane], fmt.Sprintf("%s@%v", label, eng.LaneNow(lane)))
		}, nil, 0)
	}
	hop(0, "a", 0)
	hop(1, "b", 1.0) // exactly at the first window's bound
	hop(0, "c", 1.0)
	hop(1, "d", 0.5)
	eng.RunUntil(3)
	if got, want := fmt.Sprint(traces[0]), "[a@0 c@1]"; got != want {
		t.Fatalf("lane 0 trace %v want %v", got, want)
	}
	if got, want := fmt.Sprint(traces[1]), "[d@0.5 b@1]"; got != want {
		t.Fatalf("lane 1 trace %v want %v", got, want)
	}
}

// TestPartitionHealMidWindow pins the auto-fencing mechanism that makes
// mid-run topology directives safe: a global event at 0.5 must execute
// before any lane event past it, even though the lookahead window
// starting at 0.2 would otherwise stretch to 1.2. The lane callbacks
// read an unsynchronized flag the global event writes — correct only if
// windows never span a global event (and the race detector enforces
// exactly that in the raced CI sweep).
func TestPartitionHealMidWindow(t *testing.T) {
	sim := des.New()
	eng := des.NewSharded(sim, 2, 1.0)
	partitioned := false
	saw := make([]map[string]bool, 2)
	saw[0], saw[1] = map[string]bool{}, map[string]bool{}
	lane := func(i int, label string, at des.Time) {
		eng.ScheduleLaneDirect(i, at, func(any, uint64) {
			saw[i][label] = partitioned
		}, nil, 0)
	}
	lane(0, "before", 0.2)
	sim.Schedule(0.5, func() { partitioned = true }) // a "partition" directive
	lane(0, "after0", 0.6)
	lane(1, "after1", 0.8)
	eng.RunUntil(2)
	if saw[0]["before"] {
		t.Fatal("lane event at 0.2 saw the partition from 0.5")
	}
	if !saw[0]["after0"] || !saw[1]["after1"] {
		t.Fatalf("lane events after 0.5 missed the partition: %v", saw)
	}
}

// TestStripeAssignmentCoversArena sanity-checks the stripe map: every
// node lands in a valid stripe and nodes in clearly distinct horizontal
// bands land in distinct stripes.
func TestStripeAssignmentCoversArena(t *testing.T) {
	spec := shardSpec(4)
	w, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	if w.Eng == nil {
		t.Fatalf("sharding declined: %s", w.ShardNote)
	}
	seen := map[int]int{}
	for _, n := range w.Net.Nodes() {
		lane := w.Net.ExecLaneIdx(n.ID) // serial context: always 0
		if lane != 0 {
			t.Fatalf("ExecLaneIdx outside a window returned %d", lane)
		}
	}
	// Count stripes through positions: with 264 spread nodes all four
	// stripes should be populated.
	arena := w.Net.Arena()
	for _, n := range w.Net.Nodes() {
		x := n.TruePos().X
		s := int((x - arena.Min.X) / arena.W() * 4)
		if s > 3 {
			s = 3
		}
		seen[s]++
	}
	for s := 0; s < 4; s++ {
		if seen[s] == 0 {
			t.Fatalf("stripe %d empty: %v", s, seen)
		}
	}
}
