package des

import (
	"container/heap"
	"testing"
)

// TestLadderTierBoundaryInserts pins insert's tier assignment at the
// exact epoch-roll horizon: an event at precisely nearEnd must take
// the spill heap (the near window is half-open) and one a hair inside
// the horizon the near tier — and all of them must still execute in
// exact (at, seq) order against the reference heap once the epoch
// rolls pop them into fresh buckets.
func TestLadderTierBoundaryInserts(t *testing.T) {
	s := New()
	s.SetGrain(1e-3) // empty queue: applies now, window re-anchored at 0

	ref := &refHeap{}
	var popped []int
	nextID := 0
	run := func(arg any, _ uint64) { popped = append(popped, arg.(int)) }
	schedule := func(at Time) {
		e := &refEntry{at: at, seq: s.seq, id: nextID}
		heap.Push(ref, e)
		s.ScheduleCallU(at, run, nextID, 0)
		nextID++
	}
	nearCount := func() int {
		n := 0
		for _, b := range s.buckets {
			n += b.n
		}
		return n
	}

	const eps = 1e-9
	nearEnd := s.nearEnd

	schedule(nearEnd) // exactly at the near horizon
	if len(s.spill) != 1 || nearCount() != 0 {
		t.Fatalf("event at nearEnd placed outside the spill heap (spill=%d near=%d)", len(s.spill), nearCount())
	}
	schedule(nearEnd - eps) // last representable instant of the near tier
	if len(s.spill) != 1 || nearCount() != 1 {
		t.Fatalf("event below nearEnd placed outside the near tier (spill=%d near=%d)", len(s.spill), nearCount())
	}
	schedule(8 * nearEnd) // several near-spans out: same single tier
	if len(s.spill) != 2 {
		t.Fatalf("event beyond nearEnd placed outside the spill heap (spill=%d)", len(s.spill))
	}
	// Ties at the boundary instants: sequence numbers must break them.
	schedule(nearEnd)
	schedule(8 * nearEnd)
	// Background traffic on both sides of the horizon so the rolls
	// have near-tier work to drain between boundary events.
	rng := xorshift(0xb0a710ad)
	for i := 0; i < 2000; i++ {
		schedule(Time(rng.float() * 10))
	}

	s.Run()

	var want []int
	for e := ref.popLive(); e != nil; e = ref.popLive() {
		want = append(want, e.id)
	}
	if len(popped) != len(want) {
		t.Fatalf("ladder executed %d events, reference %d", len(popped), len(want))
	}
	for i := range want {
		if popped[i] != want[i] {
			t.Fatalf("pop order diverges at %d: ladder ran id %d, reference id %d", i, popped[i], want[i])
		}
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending=%d after drain", s.Pending())
	}
}

// TestLadderLateInsertDrainingBucket covers the imminent side heap: an
// event scheduled from inside a callback into the bucket already being
// drained (insert's idx <= cur path) must run within the same bucket
// pass, in (at, seq) order relative to the entries still ahead of the
// drain head.
func TestLadderLateInsertDrainingBucket(t *testing.T) {
	s := New()
	s.SetGrain(1e-3)

	var order []int
	// Three events in one bucket; the first one schedules two more into
	// the same draining bucket: one at the current instant (must run
	// after the pre-scheduled same-instant event, by seq) and one just
	// before the bucket edge.
	s.ScheduleCallU(0.0105, func(any, uint64) {
		order = append(order, 0)
		s.ScheduleCallU(s.Now(), func(any, uint64) { order = append(order, 3) }, nil, 0)
		s.ScheduleCallU(0.0109, func(any, uint64) { order = append(order, 4) }, nil, 0)
		if len(s.side) == 0 {
			t.Fatalf("late inserts into the draining bucket bypassed the side heap (side=%d)", len(s.side))
		}
	}, nil, 0)
	s.ScheduleCallU(0.0105, func(any, uint64) { order = append(order, 1) }, nil, 0)
	s.ScheduleCallU(0.0107, func(any, uint64) { order = append(order, 2) }, nil, 0)
	s.Run()

	want := []int{0, 1, 3, 2, 4}
	if len(order) != len(want) {
		t.Fatalf("executed %d events, want %d (%v)", len(order), len(want), order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("execution order %v, want %v", order, want)
		}
	}
}

// TestReserveSeqsCancelReschedule cross-checks the reserved-sequence
// batch path against the reference heap: a block reserved early and
// materialized late must execute in its reserved positions even though
// later-sequence events were scheduled in between; cancelling a batch
// member tombstones exactly that member; and a replacement scheduled
// afterwards takes a fresh sequence number after the block.
func TestReserveSeqsCancelReschedule(t *testing.T) {
	s := New()
	s.SetGrain(5e-4)

	ref := &refHeap{}
	var popped []int
	run := func(arg any, _ uint64) { popped = append(popped, arg.(int)) }
	runU := func(_ any, u uint64) { popped = append(popped, int(u)) }
	schedule := func(at Time, id int) Handle {
		heap.Push(ref, &refEntry{at: at, seq: s.seq, id: id})
		return s.ScheduleCallU(at, run, id, 0)
	}

	// Reserve a block of 4 sequence numbers for a batch at t=0.02,
	// before any of its events exist.
	first := s.ReserveSeqs(4)

	// Later-sequence competition at the same timestamp and around it.
	schedule(0.02, 100)
	schedule(0.019, 101)
	hVictim := schedule(0.02, 102)

	// Materialize the batch out of order; reserved sequence numbers
	// place every member ahead of ids 100/102 at the same instant.
	entries := make([]*refEntry, 4)
	handles := make([]Handle, 4)
	for _, k := range []int{2, 0, 3, 1} {
		e := &refEntry{at: 0.02, seq: first + uint64(k), id: k}
		entries[k] = e
		heap.Push(ref, e)
		handles[k] = s.ScheduleCallSeqU(0.02, first+uint64(k), runU, nil, uint64(k))
	}

	// Cancel one batch member and one plain event, then reschedule a
	// replacement: it must land after everything reserved or scheduled
	// so far.
	if !handles[2].Cancel() {
		t.Fatal("cancel of a pending reserved-seq handle reported false")
	}
	entries[2].dead = true
	if !hVictim.Cancel() {
		t.Fatal("cancel of a pending handle reported false")
	}
	for _, e := range *ref {
		if e.id == 102 {
			e.dead = true
		}
	}
	schedule(0.02, 103)

	s.Run()

	var want []int
	for e := ref.popLive(); e != nil; e = ref.popLive() {
		want = append(want, e.id)
	}
	if len(popped) != len(want) {
		t.Fatalf("ladder executed %d events, reference %d (%v vs %v)", len(popped), len(want), popped, want)
	}
	for i := range want {
		if popped[i] != want[i] {
			t.Fatalf("pop order %v, want %v", popped, want)
		}
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending=%d after drain", s.Pending())
	}
}
