package des

import (
	"container/heap"
	"testing"
)

// refEntry is one pending event of the reference scheduler: the plain
// binary heap ordered by (at, seq) that the ladder queue must reproduce
// exactly.
type refEntry struct {
	at   Time
	seq  uint64
	id   int
	dead bool
	ran  bool
}

type refHeap []*refEntry

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*refEntry)) }
func (h *refHeap) Pop() (x any) { old := *h; n := len(old); x = old[n-1]; *h = old[:n-1]; return }
func (h *refHeap) popLive() *refEntry {
	for h.Len() > 0 {
		e := heap.Pop(h).(*refEntry)
		if !e.dead {
			return e
		}
	}
	return nil
}

// xorshift is a tiny deterministic PRNG so the test needs no seeds from
// the environment.
type xorshift uint64

func (x *xorshift) next() uint64 {
	v := *x
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = v
	return uint64(v)
}

func (x *xorshift) float() float64 { return float64(x.next()%1_000_000) / 1_000_000 }

// TestLadderMatchesHeapOrder drives 100k mixed schedule/cancel
// operations through the ladder queue and a reference heap in lockstep
// and asserts the pop order is identical: same event IDs at the same
// timestamps, cancellations honored. It runs two delay mixes: one
// spanning six orders of magnitude so every tier gets traffic, and one
// where most inserts land beyond the near horizon, so the spill heap
// and the epoch roll carry the load (the shape the heap tier sees most
// of at N=50k, where 390k inserts land beyond nearEnd).
func TestLadderMatchesHeapOrder(t *testing.T) {
	mixes := []struct {
		name string
		// delay maps a draw in [0,10) and a uniform [0,1) to a delay.
		delay func(draw uint64, u float64) Duration
		// minBeyond is the least share of inserts that must land at or
		// beyond nearEnd for the mix to have tested what it claims.
		minBeyond float64
	}{
		{"all-tiers", func(draw uint64, u float64) Duration {
			// in-bucket (us), near-tier (ms), beyond-horizon (s, min).
			switch draw {
			case 0:
				return Duration(u * 1e-6)
			case 1, 2, 3, 4, 5:
				return Duration(u * 2e-3)
			case 6, 7:
				return Duration(u * 0.8)
			case 8:
				return Duration(u * 20)
			default:
				return Duration(u * 300)
			}
		}, 0.05},
		{"mostly-beyond-horizon", func(draw uint64, u float64) Duration {
			// The long delays start past numBuckets*maxWidth (256 s), so
			// they stay beyond the horizon however far the width adapts.
			switch draw {
			case 0:
				return Duration(u * 1e-6)
			case 1, 2:
				return Duration(u * 2e-3)
			case 3, 4, 5, 6:
				return Duration(300 + u*3e3)
			default:
				return Duration(300 + u*3e4)
			}
		}, 0.5},
	}
	for _, mix := range mixes {
		t.Run(mix.name, func(t *testing.T) {
			testLadderMatchesHeapOrder(t, mix.delay, mix.minBeyond)
		})
	}
}

func testLadderMatchesHeapOrder(t *testing.T, delay func(uint64, float64) Duration, minBeyond float64) {
	const ops = 100_000

	s := New()
	s.SetGrain(5e-4)
	ref := &refHeap{}
	rng := xorshift(0x9e3779b97f4a7c15)

	nextID := 0
	var handles []Handle    // parallel: ladder handle per scheduled id
	var entries []*refEntry // parallel: reference entry per scheduled id
	var popped []int
	scheduled := 0
	beyond := 0 // inserts at or beyond nearEnd: the spill heap's share

	randDelay := func() Duration { return delay(rng.next()%10, rng.float()) }

	var runOp func(any, uint64)
	schedule := func(at Time) {
		id := nextID
		nextID++
		e := &refEntry{at: at, seq: s.seq, id: id}
		heap.Push(ref, e)
		if at >= s.nearEnd {
			beyond++
		}
		handles = append(handles, s.ScheduleCallU(at, runOp, id, 0))
		entries = append(entries, e)
		scheduled++
	}
	cancelRandom := func() {
		// Try a few draws for a still-pending victim; a miss is fine.
		for try := 0; try < 4 && len(handles) > 0; try++ {
			id := int(rng.next() % uint64(len(handles)))
			if e := entries[id]; !e.dead && !e.ran {
				if !handles[id].Cancel() {
					t.Fatalf("cancel of pending handle %d reported false", id)
				}
				entries[id].dead = true
				scheduled++
				return
			}
		}
	}
	runOp = func(arg any, _ uint64) {
		popped = append(popped, arg.(int))
		entries[arg.(int)].ran = true
		// Keep the op mix flowing from inside callbacks, where
		// scheduling interacts with the partially drained current
		// bucket.
		for scheduled < ops {
			switch rng.next() % 8 {
			case 0:
				cancelRandom()
			case 1, 2:
				schedule(s.Now() + randDelay())
				continue // keep a couple per event on average
			default:
				schedule(s.Now() + randDelay())
			}
			break
		}
	}

	for i := 0; i < 512; i++ {
		schedule(randDelay())
	}
	s.Run()

	if scheduled < ops {
		t.Fatalf("only %d of %d ops performed; op mix starved", scheduled, ops)
	}
	if share := float64(beyond) / float64(nextID); share < minBeyond {
		t.Fatalf("%.1f%% of %d inserts landed beyond nearEnd, want >= %.0f%%", 100*share, nextID, 100*minBeyond)
	}
	var want []int
	for e := ref.popLive(); e != nil; e = ref.popLive() {
		want = append(want, e.id)
	}
	if len(popped) != len(want) {
		t.Fatalf("ladder executed %d events, reference %d", len(popped), len(want))
	}
	for i := range want {
		if popped[i] != want[i] {
			t.Fatalf("pop order diverges at %d: ladder ran id %d, reference id %d",
				i, popped[i], want[i])
		}
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending=%d after drain", s.Pending())
	}
}

// TestFanoutMatchesHeapOrder drives random fan-outs of 2–40 members,
// interleaved with plain schedules and cancellations, through the
// ladder and the reference heap in lockstep. In the reference every
// member is its own entry at the batch's first sequence number plus its
// index, which is what one ScheduleCallU per member would have made.
// Member spreads cover all the places a batch unpacks into: the bucket
// being drained (the side-heap path), the bucket that becomes current
// (the run-buffer path), later buckets, the far side of the near
// horizon, and timestamps shared with other members.
func TestFanoutMatchesHeapOrder(t *testing.T) {
	const ops = 40_000

	s := New()
	s.SetGrain(5e-4)
	ref := &refHeap{}
	rng := xorshift(0x2545f4914f6cdd1d)

	nextID := 0
	var handles []Handle
	var entries []*refEntry
	var popped []int
	done := 0
	// Coverage of the shapes the test claims, counted at schedule time.
	var intoCurrent, intoLater, spanning, straddling, tied int

	delay := func() Duration {
		u := rng.float()
		switch rng.next() % 10 {
		case 0:
			return Duration(u * 1e-6)
		case 1, 2, 3, 4, 5:
			return Duration(u * 2e-3)
		case 6, 7:
			return Duration(u * 0.8)
		default:
			return Duration(u * 300)
		}
	}
	var runOp func(any, uint64)
	var runMember func(any, uint64)
	schedule := func() {
		at := s.Now() + delay()
		entries = append(entries, &refEntry{at: at, seq: s.seq, id: nextID})
		heap.Push(ref, entries[nextID])
		handles = append(handles, s.ScheduleCallU(at, runOp, nextID, 0))
		nextID++
	}
	fanout := func() {
		n := 2 + int(rng.next()%39)
		base := s.Now() + delay()
		// Same-instant, same-bucket, next-buckets or split across the
		// horizon: the far half lies past numBuckets*maxWidth (256 s),
		// beyond nearEnd however far the width adapts.
		mode := rng.next() % 4
		tie := false
		at := make([]Time, n)
		u := make([]uint64, n)
		for i := range at {
			switch r := Time(rng.float()); {
			case mode == 1:
				at[i] = base + r*1e-6
			case mode == 2:
				at[i] = base + r*5e-3
			case mode == 3 && rng.next()%2 == 0:
				at[i] = base + 300 + r*3e3
			default:
				at[i] = base + r*Time(mode)*1e-3 // mode 0: base exactly
			}
			if rng.next()%4 == 0 && i > 0 {
				at[i] = at[rng.next()%uint64(i)] // a shared timestamp
				tie = true
			}
			u[i] = uint64(nextID)
			// Members are not cancellable: no handle, never dead.
			entries = append(entries, &refEntry{at: at[i], seq: s.seq + uint64(i), id: nextID})
			heap.Push(ref, entries[nextID])
			handles = append(handles, Handle{})
			nextID++
		}
		if tie {
			tied++
		}
		lo, hi := numBuckets, -1
		for _, a := range at {
			b := s.bucketOf(a)
			lo, hi = min(lo, b), max(hi, b)
		}
		switch {
		case lo <= s.cur:
			intoCurrent++
		case lo < numBuckets:
			intoLater++
		}
		if lo < hi && hi < numBuckets {
			spanning++
		}
		if lo < numBuckets && hi == numBuckets {
			straddling++
		}
		s.ScheduleFanout(at, runMember, nil, u)
	}
	cancelRandom := func() {
		for try := 0; try < 4 && len(handles) > 0; try++ {
			id := int(rng.next() % uint64(len(handles)))
			if handles[id].Cancel() {
				entries[id].dead = true
				return
			}
		}
	}
	step := func() {
		for done < ops {
			done++
			switch rng.next() % 8 {
			case 0:
				cancelRandom()
			case 1, 2:
				fanout()
			case 3:
				schedule()
				continue
			default:
				schedule()
			}
			return
		}
	}
	runOp = func(arg any, _ uint64) {
		popped = append(popped, arg.(int))
		entries[arg.(int)].ran = true
		step()
	}
	runMember = func(_ any, u uint64) {
		popped = append(popped, int(u))
		if rng.next()%4 == 0 {
			step()
		}
	}

	for i := 0; i < 256; i++ {
		schedule()
		fanout()
	}
	s.Run()

	if done < ops {
		t.Fatalf("only %d of %d ops performed; op mix starved", done, ops)
	}
	for _, c := range []struct {
		n    int
		name string
	}{
		{intoCurrent, "into the draining bucket"}, {intoLater, "into a later bucket"},
		{spanning, "spanning near buckets"}, {straddling, "straddling the near horizon"},
		{tied, "with tied member timestamps"},
	} {
		if c.n < 100 {
			t.Errorf("only %d fan-outs %s; the mix no longer covers it", c.n, c.name)
		}
	}
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
	if got := s.Executed(); got != uint64(len(want)) {
		t.Fatalf("Executed=%d, reference ran %d", got, len(want))
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending=%d after drain", s.Pending())
	}
}

// TestLadderGrainAdaptation sanity-checks that extreme workloads do not
// wedge the width adaptation: a microsecond-scale storm followed by a
// sparse minutes-scale timer phase must both drain in order.
func TestLadderGrainAdaptation(t *testing.T) {
	s := New()
	var last Time = -1
	check := func() {
		if s.Now() < last {
			t.Fatalf("clock went backwards: %v after %v", s.Now(), last)
		}
		last = s.Now()
	}
	for i := 0; i < 50_000; i++ {
		s.Schedule(Time(i)*1e-7, check)
	}
	for i := 0; i < 100; i++ {
		s.Schedule(10+Time(i)*30, check)
	}
	s.Run()
	if s.Executed() != 50_100 {
		t.Fatalf("Executed=%d want 50100", s.Executed())
	}
}

// TestInfinitySentinels pins the degenerate-roll path: events at
// des.Infinity (a common "never, unless rescheduled" idiom) must not
// wedge the ladder when they are all that remains, and must still run
// in sequence order once a run reaches them.
func TestInfinitySentinels(t *testing.T) {
	s := New()
	var order []int
	s.Schedule(Infinity, func() { order = append(order, 1) })
	s.Schedule(5, func() { order = append(order, 0) })
	s.Schedule(Infinity, func() { order = append(order, 2) })
	s.RunUntil(10)
	if s.Now() != 10 {
		t.Fatalf("RunUntil(10) left the clock at %v", s.Now())
	}
	if len(order) != 1 || order[0] != 0 {
		t.Fatalf("Infinity events ran before their time: %v", order)
	}
	if s.Pending() != 2 {
		t.Fatalf("Pending=%d want 2 parked sentinels", s.Pending())
	}
	// Draining the queue releases the sentinels in schedule order
	// (matching the monolithic-heap kernel's behavior).
	s.Run()
	if len(order) != 3 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("sentinel execution order %v want [0 1 2]", order)
	}
}

// TestBucketStorageFollowsPending holds the kernel's entry memory to
// what is pending. One cycle drives three epochs of entries spread over
// all numBuckets buckets and past the near horizon, with 40-member
// fan-outs among them, then one same-instant burst of 12,000 entries,
// draining each. Every chunk must be back on the free list after a
// drain, the free list must never keep more chunks than the buckets
// held at once, and a repeat of the cycle must allocate nothing. A
// burst above burstCap must not leave its run buffer behind once it
// has drained.
func TestBucketStorageFollowsPending(t *testing.T) {
	s := New()
	chunks := func(c *chunk) (n int) {
		for ; c != nil; c = c.next {
			n++
		}
		return n
	}
	held := func() (n int) {
		for i := range s.buckets {
			n += chunks(s.buckets[i].head)
		}
		return n
	}
	most := 0
	observe := func() { most = max(most, held()) }
	noop := func(any, uint64) {}
	var at [40]Time
	var u [40]uint64
	// Each phase starts on an empty queue at a whole second, where
	// SetGrain re-anchors the near window at the clock; offsets are
	// dyadic, so each repeat of the cycle puts every entry in the same
	// bucket.
	begin := func() Time {
		s.SetGrain(1e-3)
		return s.Now()
	}
	cycle := func(observe func()) {
		rng := xorshift(0x5eed)
		offset := func(span float64) Time { return Time(float64(rng.next()%(1<<20)) / (1 << 20) * span) }
		drain := func(start Time, span Duration) {
			observe()
			for s.Step() {
				observe()
			}
			s.RunUntil(start + span)
		}
		for epoch := 0; epoch < 3; epoch++ {
			start := begin()
			for i := 0; i < 16*numBuckets; i++ {
				s.ScheduleCallU(start+offset(2), noop, nil, 0)
			}
			for i := 0; i < 32; i++ {
				first := start + offset(1)
				for j := range at {
					at[j], u[j] = first+offset(1.0/64), uint64(j)
				}
				s.ScheduleFanout(at[:], noop, nil, u[:])
			}
			drain(start, 2)
		}
		start := begin()
		for i := 0; i < 12_000; i++ {
			s.ScheduleCallU(start+0.5, noop, nil, 0)
		}
		drain(start, 1)
	}

	cycle(observe)
	cycle(observe)
	if n := held(); n != 0 {
		t.Fatalf("%d chunks still held by drained buckets", n)
	}
	kept := chunks(s.freeChunks)
	if kept == 0 || kept > most {
		t.Fatalf("free list keeps %d chunks; the buckets held at most %d at once", kept, most)
	}
	if n := testing.AllocsPerRun(2, func() { cycle(func() {}) }); n != 0 {
		t.Fatalf("a repeated cycle allocated %v times per run", n)
	}
	if n := chunks(s.freeChunks); n != kept {
		t.Fatalf("free list went from %d to %d chunks over identical cycles", kept, n)
	}

	start := begin()
	for i := 0; i < 2*burstCap; i++ {
		s.ScheduleCallU(start+0.5, noop, nil, 0)
	}
	s.ScheduleCallU(start+0.75, noop, nil, 0)
	s.Run()
	if c := cap(s.run); c > burstCap {
		t.Fatalf("run buffer keeps %d entries after its %d-entry burst drained", c, 2*burstCap)
	}
}

// BenchmarkScheduleCall measures the steady-state ScheduleCallU + dispatch
// cycle: each executed event schedules its successor, holding the
// pending set at 4096 events — the shape of a causality-chained
// protocol run.
func BenchmarkScheduleCall(b *testing.B) {
	s := New()
	s.SetGrain(5e-4)
	var delays [1024]Duration
	rng := xorshift(1)
	for i := range delays {
		delays[i] = Duration(1e-4 + rng.float()*2e-3)
	}
	i := 0
	var fn func(any, uint64)
	fn = func(any, uint64) {
		s.ScheduleCallU(s.Now()+delays[i&1023], fn, nil, 0)
		i++
	}
	for j := 0; j < 4096; j++ {
		s.ScheduleCallU(delays[j&1023], fn, nil, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		s.Step()
	}
}
