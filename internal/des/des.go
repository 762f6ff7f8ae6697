// Package des implements the discrete-event simulation kernel that every
// experiment in this repository runs on. It provides a virtual clock, an
// O(1)-amortized ladder-queue future event list with a free-list of
// recycled event records (so steady-state scheduling allocates nothing),
// periodic timers, and cancellation handles.
//
// The kernel is deliberately single-threaded: MANET protocol simulations
// are causality-chained (a reception schedules the next transmission), so
// the standard structure is one goroutine per *run* and many runs in
// parallel, which the experiment harness arranges. Keeping the kernel
// lock-free makes a run deterministic for a given seed.
//
// # Hot-path design
//
// The future event list is a ladder queue (calendar-queue hybrid) rather
// than a single heap, because at 10k-node scale the pending set holds
// 10^5+ events and every push/pop of a monolithic heap walks log E cold
// cache lines. The ladder splits events by distance from the clock:
//
//   - The imminent tier holds only the bucket currently being drained:
//     a sorted run popped by advancing a head index, plus a 4-ary side
//     heap for events scheduled after the bucket started draining (the
//     causality chains of the current instant). Pops are sequential
//     reads over cache-resident entries instead of log-depth sifts
//     over the whole pending set. Bucket 0 of each epoch never becomes
//     a run, by design: an epoch starts with the clock inside it
//     (rebase leaves cur = 0), so everything placed there — the
//     earliest pending instant the roll re-based at, and what it
//     schedules within one bucket width — goes through the side heap.
//     Draining it as an ordinary bucket measured no faster (DESIGN.md,
//     "Complexity ledger"). A bucket becomes current by being copied
//     into one kernel-owned run buffer together with every fan-out
//     member (ScheduleFanout) that falls in it, so a broadcast's
//     receivers are ordered once with their bucket instead of sifting
//     one by one through the side heap.
//   - The near tier is an array of numBuckets FIFO buckets of width
//     s.width seconds each. A bucket is a list of fixed-size chunks
//     filled in schedule order (Tang, Goh & Thng's linked-list bucket,
//     with slabs of chunkSize entries instead of one node per event),
//     taken from one kernel free list and returned to it when the
//     bucket becomes current, so entry memory follows the pending set,
//     not the largest burst each bucket ever saw. A bucket is ordered
//     once, when the clock reaches it: one sequential pass when its
//     entries arrived in timestamp order, as same-instant protocol
//     rounds do, and otherwise one distribution of the run over slots
//     of its timestamp span (orderRun; the ladder's finer rung in
//     place of a comparison sort). The width follows the hop-delay
//     quantum of the workload (see SetGrain; the network layer feeds
//     it the radio processing-delay floor) and re-adapts to the
//     observed per-bucket occupancy on every epoch roll, but never
//     past the quantum: a bucket no wider than the least hop delay
//     sends each hop to a later bucket, not into the side heap.
//   - The spill tier is one 4-ary heap for everything beyond the near
//     horizon (protocol timers, long timeouts, Infinity sentinels).
//     When the near tier drains, the epoch rolls: the ladder re-bases
//     at the heap's root, the earliest pending timestamp, and pops
//     the events the new near window covers into fresh buckets. Under
//     0.3% of inserts land here on every recorded workload (DESIGN.md,
//     "Complexity ledger"), so one ordered tier suffices.
//
// The tiers preserve the exact total order a single heap would produce —
// timestamp, then schedule sequence number — so runs are reproducible
// and byte-identical to the former monolithic-heap kernel
// (TestLadderMatchesHeapOrder cross-checks 100k mixed ops).
//
// Three further choices keep the constant factors down:
//
//   - Event records are pooled. Executing (or popping a cancelled)
//     event returns its record to a free list; Schedule reuses it.
//     Handles carry a generation counter so a handle to a recycled
//     record is inert. Cancellation tombstones the record; the queue
//     reclaims it on pop, so no tier needs deletion surgery.
//   - Every event runs as fn(arg, u): one callback slot, an arg and
//     one unboxed word. ScheduleCallU exposes that form, so a
//     high-volume caller that reuses one fn and threads per-event
//     state through arg and u (the network layer's deliveries) needs
//     no closure per event; Schedule and After store their closure in
//     arg behind one package-level trampoline, which costs no
//     allocation because a func value is pointer-shaped. The record is
//     48 bytes.
//   - ScheduleFanout holds n events that share a callback and an arg
//     (the receivers of one broadcast) behind one queue entry and one
//     event record. The members take the n sequence numbers n
//     ScheduleCallU calls would have taken, and the batch turns into
//     per-member entries only when it reaches the imminent tier, so
//     every member keeps its place in the total order. ReserveSeqs and
//     ScheduleCallSeqU let the sharded engine place an event it logged
//     earlier at the key it was given then.
package des

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// Time is simulated time in seconds since the start of the run.
type Time float64

// Duration is a span of simulated time in seconds.
type Duration = Time

// Infinity is a time later than any event the simulator will execute.
const Infinity Time = Time(math.MaxFloat64)

// event is one scheduled callback, run as fn(arg, u). Records are
// pooled: gen increments on every recycle so stale Handles cannot touch
// a reused record. A cancelled event is tombstoned (dead) and its
// record reclaimed when the queue pops it; keys live in the tier
// entries, so cancellation needs no queue surgery.
type event struct {
	fn   func(any, uint64)
	arg  any
	u    uint64
	fan  *fanout // set on the one record a fan-out's members share
	gen  uint32
	dead bool
}

// fanout is one ScheduleFanout batch: member i runs fn(arg, m[i].u) at
// m[i].at with sequence number seq+i. While packed, the batch is a
// single queue entry keyed by its minimal (at, seq) member; once
// unpacked, that entry stands for the minimal member and every other
// member has an entry of its own. All of them point to the same event
// record, which goes back to the pool with the batch when the last
// member has run. Batches pool by capacity class (a power of two), so a
// small broadcast never pins the array of the largest one.
type fanout struct {
	m      []member
	seq    uint64
	left   int // members not yet run
	packed bool
}

// member is one fan-out member's timestamp and callback word.
type member struct {
	at Time
	u  uint64
}

// entry is one future-event-list slot. The ordering keys (at, seq) are
// stored by value so tier comparisons never chase the event pointer.
// Events at equal times run in the order their sequence numbers were
// assigned (FIFO tie-break via seq), which keeps runs reproducible.
type entry struct {
	at  Time
	seq uint64
	ev  *event
}

// Handle identifies a scheduled event so it can be cancelled. The zero
// Handle is valid and refers to no event.
type Handle struct {
	ev  *event
	gen uint32
}

// Cancel prevents the event from running. Cancelling an
// already-executed, already-cancelled, or zero handle is a no-op.
// Cancel reports whether the event was still pending.
func (h Handle) Cancel() bool {
	ev := h.ev
	if ev == nil || ev.gen != h.gen || ev.dead {
		return false
	}
	ev.dead = true
	return true
}

// Ladder geometry. numBuckets near-tier buckets of defaultWidth seconds
// each cover roughly one second of simulated time at the default width;
// the spill heap absorbs everything beyond. Width adapts between
// minWidth and the SetGrain quantum (maxWidth until one is set; see
// roll) so microsecond-scale delivery storms keep bucket occupancy near
// occupancyTarget and sparse timer-only phases do not widen buckets
// past the hop delay.
const (
	numBuckets      = 1024
	defaultWidth    = 1e-3
	minWidth        = 1e-7
	maxWidth        = 0.25
	occupancyTarget = 64

	// chunkSize is the entry capacity of one near-tier chunk: 63
	// entries, the fill count and the link make 1,528 bytes, which
	// fits the runtime's 1,536-byte size class.
	chunkSize = 63

	// burstCap is the run-buffer capacity (384 KB of entries) above
	// which the buffer counts as burst-sized: it is dropped once its
	// burst has drained rather than idling at peak size until the next
	// one.
	burstCap = 1 << 14
)

// chunk is one fixed-size slab of a near-tier bucket. A bucket is a
// list of chunks filled in schedule order; only its tail is partly
// full.
type chunk struct {
	e    [chunkSize]entry
	n    int
	next *chunk
}

// bucket is one near-tier bucket: its chunk list, its entry count, and
// the count of fan-out members still packed behind its entries, which
// tell the bucket's turn how large a run it needs and whether to
// unpack.
type bucket struct {
	head, tail *chunk
	n, extra   int
}

// Simulator owns the virtual clock and the future event list.
type Simulator struct {
	now      Time
	free     []*event
	seq      uint64
	executed uint64

	// Ladder state. Entries with bucket index <= cur live in the
	// imminent tier (run/side); buckets cur+1..numBuckets-1 hold the
	// rest of the near tier; spill holds >= nearEnd.
	width   float64
	base    Time
	nearEnd Time
	cur     int
	buckets [numBuckets]bucket
	run     []entry // imminent tier: the current bucket, sorted; drained by head
	head    int
	side    []entry // late imminent inserts: 4-ary min-heap by (at, seq)
	spill   []entry // beyond the near horizon: 4-ary min-heap by (at, seq)
	count   int     // pending entries across all tiers

	// freeChunks links the chunks no bucket holds; freeFan[k] pools
	// fan-out batches of capacity 1<<k.
	freeChunks *chunk
	freeFan    [][]*fanout

	// slots is orderRun's stack of slot bounds, one level per
	// recursion; runFor drops it after a burst as it does the run.
	slots []int32

	grain   float64 // width hint from SetGrain, applied at the next roll
	quantum float64 // the last grain SetGrain reported: the width's ceiling
	placed  uint64  // near-tier placements this epoch (occupancy feedback)
}

// New returns an empty simulator with the clock at zero.
func New() *Simulator {
	s := &Simulator{width: defaultWidth, quantum: maxWidth}
	s.rebase(0)
	return s
}

// rebase points bucket 0 at time t with the current width.
func (s *Simulator) rebase(t Time) {
	s.base = t
	s.nearEnd = t + Time(float64(numBuckets)*s.width)
	s.cur = 0
}

// Now returns the current simulated time.
func (s *Simulator) Now() Time { return s.now }

// Executed returns the number of events executed so far; useful both in
// tests and as a cheap progress measure.
func (s *Simulator) Executed() uint64 { return s.executed }

// Pending returns the number of entries currently scheduled, including
// cancelled events the queue has not reclaimed yet. A fan-out (see
// ScheduleFanout) counts as one until it unpacks, then as one per
// member not yet run.
func (s *Simulator) Pending() int { return s.count }

// SetGrain hints the scheduler's bucket width: the finest delay quantum
// the workload schedules at high volume (the network layer passes the
// radio tier's per-hop processing-delay floor, radio.Precomp.
// DelayQuantum). The hint applies immediately while the queue is empty
// and at the next epoch roll otherwise; occupancy feedback keeps
// adapting from there, halving the width freely but doubling it no
// further than the grain, which stays the width's ceiling until the
// next SetGrain. A non-positive grain is ignored.
func (s *Simulator) SetGrain(d Duration) {
	if d <= 0 {
		return
	}
	g := math.Min(math.Max(float64(d), minWidth), maxWidth)
	s.quantum = g
	if s.count == 0 {
		// Empty queue: apply now, re-anchoring the window at the clock
		// (the old base may lie far in the past after a long drain, and
		// a window behind the clock would shunt every insert to the
		// spill heap until the first roll).
		s.width = g
		s.rebase(s.now)
		return
	}
	s.grain = g
}

// alloc takes an event record from the pool (or allocates one).
func (s *Simulator) alloc() *event {
	if n := len(s.free); n > 0 {
		ev := s.free[n-1]
		s.free = s.free[:n-1]
		return ev
	}
	return &event{}
}

// recycle returns a record to the pool, invalidating outstanding handles.
func (s *Simulator) recycle(ev *event) {
	ev.gen++
	ev.fn, ev.arg, ev.fan = nil, nil, nil
	ev.dead = false
	s.free = append(s.free, ev)
}

// Schedule runs fn at absolute time at. Scheduling in the past panics:
// that is always a protocol bug, and failing loudly during development is
// preferable to silent causality violations.
func (s *Simulator) Schedule(at Time, fn func()) Handle {
	return s.ScheduleCallU(at, runClosure, fn, 0)
}

// runClosure is the trampoline behind Schedule: the closure rides in arg.
func runClosure(arg any, _ uint64) { arg.(func())() }

// ScheduleCallU runs fn(arg, u) at absolute time at: the kernel's one
// event form, for hot paths. A caller that reuses one fn and threads
// per-event state through arg and u schedules without allocating a
// closure; the delivery path threads the packet through arg and
// (from, to) through u, which spares it a pooled per-hop record.
func (s *Simulator) ScheduleCallU(at Time, fn func(any, uint64), arg any, u uint64) Handle {
	ev := s.push(at)
	ev.fn = fn
	ev.arg = arg
	ev.u = u
	return Handle{ev, ev.gen}
}

// After runs fn after the given delay from the current time.
func (s *Simulator) After(d Duration, fn func()) Handle {
	return s.Schedule(s.now+d, fn)
}

// ScheduleFanout schedules len(at) events that share fn and arg: member
// i runs fn(arg, u[i]) at at[i]. The members take the consecutive
// sequence numbers that one ScheduleCallU per member, in index order,
// would have taken, so they execute exactly where those calls would
// have put them, and each counts as one executed event. Until the batch
// reaches the imminent tier it is one queue entry keyed by its earliest
// member, and all members share one event record; at and u are copied,
// so the caller may reuse them. Members cannot be cancelled.
func (s *Simulator) ScheduleFanout(at []Time, fn func(any, uint64), arg any, u []uint64) {
	switch len(at) {
	case 0:
		return
	case 1:
		s.ScheduleCallU(at[0], fn, arg, u[0])
		return
	}
	first := 0 // the earliest member: lowest index at the minimal time
	for i, t := range at {
		if t < s.now {
			panic(fmt.Sprintf("des: scheduling at %v before now %v", t, s.now))
		}
		if t < at[first] {
			first = i
		}
	}
	fo := s.allocFan(len(at))
	for i, t := range at {
		fo.m = append(fo.m, member{t, u[i]})
	}
	fo.seq, fo.left, fo.packed = s.seq, len(at), true
	ev := s.alloc()
	ev.fn, ev.arg, ev.fan = fn, arg, fo
	if idx := s.insert(entry{at: at[first], seq: s.seq + uint64(first), ev: ev}); idx > 0 {
		s.buckets[idx].extra += len(at) - 1
	}
	s.seq += uint64(len(at))
}

// allocFan takes a batch with room for n members from its capacity
// class's pool, or allocates one.
func (s *Simulator) allocFan(n int) *fanout {
	k := bits.Len(uint(n - 1))
	if k < len(s.freeFan) {
		if p := s.freeFan[k]; len(p) > 0 {
			s.freeFan[k] = p[:len(p)-1]
			return p[len(p)-1]
		}
	}
	return &fanout{m: make([]member, 0, 1<<k)}
}

// freeFanout returns a batch whose last member has run to its pool.
func (s *Simulator) freeFanout(fo *fanout) {
	fo.m = fo.m[:0]
	k := bits.Len(uint(cap(fo.m) - 1))
	for len(s.freeFan) <= k {
		s.freeFan = append(s.freeFan, nil)
	}
	s.freeFan[k] = append(s.freeFan[k], fo)
}

// ReserveSeqs reserves a contiguous block of n schedule sequence numbers
// and returns the first. The sharded engine reserves a logged event's
// sequence number when it is logged and places the event later via
// ScheduleCallSeqU; because the total order is (timestamp, sequence),
// the late event still executes exactly where immediate scheduling
// would have put it.
func (s *Simulator) ReserveSeqs(n int) uint64 {
	first := s.seq
	s.seq += uint64(n)
	return first
}

// ScheduleCallSeqU schedules fn(arg, u) at absolute time at with an
// explicit sequence number previously obtained from ReserveSeqs. The
// caller must guarantee that (at, seq) is still in the future of the
// execution order, i.e. at >= Now() and no event ordered after (at, seq)
// has executed yet.
func (s *Simulator) ScheduleCallSeqU(at Time, seq uint64, fn func(any, uint64), arg any, u uint64) Handle {
	if at < s.now {
		panic(fmt.Sprintf("des: scheduling at %v before now %v", at, s.now))
	}
	ev := s.alloc()
	ev.fn = fn
	ev.arg = arg
	ev.u = u
	s.insert(entry{at: at, seq: seq, ev: ev})
	return Handle{ev, ev.gen}
}

// push allocates a record for time at, assigns the next sequence number,
// and inserts the entry into the ladder.
func (s *Simulator) push(at Time) *event {
	if at < s.now {
		panic(fmt.Sprintf("des: scheduling at %v before now %v", at, s.now))
	}
	ev := s.alloc()
	s.insert(entry{at: at, seq: s.seq, ev: ev})
	s.seq++
	return ev
}

// less orders entries by (at, seq).
func (a entry) less(b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// insert places an entry in its tier and returns the index of the
// near-tier bucket it was added to, or 0 when it went to the side or
// spill heap. No entry is ever added to bucket 0: it is current from
// every rebase on, so the side heap takes that bucket by design (the
// package doc says why). Bucket assignment is a monotone function of the timestamp
// (floor((at-base)/width) computed with one shared expression), so an
// entry in a lower-indexed bucket never has a later timestamp than one
// in a higher-indexed bucket — the property that lets buckets drain
// strictly in index order.
func (s *Simulator) insert(e entry) int {
	s.count++
	idx := s.bucketOf(e.at)
	if idx == numBuckets {
		s.spill = heapPush(s.spill, e)
		return 0
	}
	s.placed++
	if idx <= s.cur {
		// The clock already reached this bucket: the entry joins the
		// imminent side heap directly (e.at >= now keeps order
		// intact). The side heap takes the events scheduled after
		// their bucket started draining — the causality chains of the
		// current instant (DESIGN.md, "Complexity ledger", has its
		// share of inserts per workload).
		s.side = heapPush(s.side, e)
		return 0
	}
	b := &s.buckets[idx]
	c := b.tail
	if c == nil || c.n == chunkSize {
		c = s.takeChunk()
		if b.tail == nil {
			b.head = c
		} else {
			b.tail.next = c
		}
		b.tail = c
	}
	c.e[c.n] = e
	c.n++
	b.n++
	return idx
}

// takeChunk takes an empty chunk from the free list, or allocates one.
func (s *Simulator) takeChunk() *chunk {
	c := s.freeChunks
	if c == nil {
		return &chunk{}
	}
	s.freeChunks, c.next, c.n = c.next, nil, 0
	return c
}

// bucketOf returns the near-tier bucket covering at, or numBuckets when
// at lies at or beyond the near horizon.
func (s *Simulator) bucketOf(at Time) int {
	if at >= s.nearEnd {
		return numBuckets
	}
	idx := int(float64(at-s.base) / s.width)
	if idx >= numBuckets {
		idx = numBuckets - 1 // float boundary rounding
	}
	return idx
}

// front returns the entry with the minimal (at, seq) key without
// removing it, advancing buckets and rolling epochs as needed. It
// returns nil when no events are pending.
//
// The imminent tier is a sorted run (run, drained by head) plus the
// side heap of late inserts; the minimum is whichever head is smaller.
// Draining a sorted run means burst buckets — a beacon round schedules
// tens of thousands of same-timestamp events — pop by sequential reads
// instead of log-depth heap swaps.
func (s *Simulator) front() *entry {
	for {
		hasRun := s.head < len(s.run)
		if len(s.side) > 0 {
			if !hasRun || s.side[0].less(s.run[s.head]) {
				return &s.side[0]
			}
			return &s.run[s.head]
		}
		if hasRun {
			return &s.run[s.head]
		}
		if s.cur+1 < numBuckets {
			s.cur++
			if s.buckets[s.cur].n > 0 {
				s.takeBucket()
			}
			continue
		}
		if len(s.spill) == 0 {
			return nil
		}
		s.roll()
	}
}

// takeBucket makes bucket cur current. Its chunks are copied into the
// kernel's run buffer in the order they were filled and go back to the
// free list; then the members packed behind its fan-outs that fall in
// this bucket join the run, and members due in later buckets take their
// own entries there. The run is ordered once. Entries are stored in
// sequence order, so a bucket whose timestamps happen to be monotone —
// same-instant protocol rounds, steady streams — is already sorted and
// the check is one sequential pass.
func (s *Simulator) takeBucket() {
	b := &s.buckets[s.cur]
	run := s.runFor(b.n + b.extra)
	for c := b.head; c != nil; {
		run = append(run, c.e[:c.n]...)
		next := c.next
		c.next, s.freeChunks = s.freeChunks, c
		c = next
	}
	if b.extra > 0 {
		for _, e := range run[:b.n] {
			if fo := e.ev.fan; fo != nil && fo.packed {
				run = s.unpack(e, run)
			}
		}
	}
	*b = bucket{}
	if !sortedEntries(run) {
		s.orderRun(run, 0)
	}
	s.run, s.head = run, 0
}

// runFor empties the run buffer and returns it with room for need
// entries. The buffer grows by doubling. A burst-sized one is dropped
// once its burst has drained, when a bucket needing a quarter of it or
// less comes along, rather than idling at peak size until the next
// burst; a recurring burst thus costs one allocation per recurrence.
// orderRun's slot stack, one bound per entry of the run it grew for,
// drops by the same rule.
func (s *Simulator) runFor(need int) []entry {
	run := s.run[:0]
	if c := cap(run); c > burstCap && need <= c/4 {
		run = nil
	}
	if c := cap(s.slots); c > burstCap && need <= c/4 {
		s.slots = nil
	}
	if cap(run) < need {
		run = make([]entry, 0, max(need, 2*cap(run)))
	}
	return run
}

// unpack expands the packed fan-out whose entry e has reached the
// imminent tier. e keeps its key and stands for the earliest member
// from now on; each other member gets an entry at its own key, appended
// to run when run is non-nil and the member falls in the current
// bucket, inserted into its tier otherwise. Members count as placed, so
// the width feedback sees the occupancy the buckets really drained.
func (s *Simulator) unpack(e entry, run []entry) []entry {
	fo := e.ev.fan
	fo.packed = false
	for i, fm := range fo.m {
		m := entry{at: fm.at, seq: fo.seq + uint64(i), ev: e.ev}
		switch {
		case m.seq == e.seq:
		case run != nil && s.bucketOf(m.at) == s.cur:
			s.count++
			s.placed++
			run = append(run, m)
		default:
			s.insert(m)
		}
	}
	return run
}

// sortedEntries reports whether the run is already in (at, seq) order.
func sortedEntries(h []entry) bool {
	for i := 1; i < len(h); i++ {
		if h[i].less(h[i-1]) {
			return false
		}
	}
	return true
}

// roll starts a new epoch: re-base the ladder at the earliest pending
// timestamp (the spill heap's root — the near tier is empty), adapt the
// bucket width to the occupancy observed last epoch (and any pending
// SetGrain hint), and pop the spill events the new near window covers
// into the fresh buckets.
func (s *Simulator) roll() {
	earliest := s.spill[0].at

	// Width feedback: halve when buckets ran hot, double when the epoch
	// was sparse, up to the quantum (a wider bucket would take the next
	// hop of a burst into the bucket draining it, and so the side heap).
	// placed counts near-tier placements since the last roll, so the
	// measure tracks what the buckets actually absorbed.
	// The dead band between the two thresholds is wide (64x) on
	// purpose: protocol workloads alternate bursty and quiet epochs,
	// and a width that followed every swing would be sized for the
	// epoch just gone rather than the next one. (Bucket storage does
	// not depend on it: chunks go back to the free list at any width.)
	if s.grain > 0 {
		s.width = s.grain
		s.grain = 0
	} else if occ := float64(s.placed) / numBuckets; occ > 4*occupancyTarget {
		s.width = math.Max(s.width/2, minWidth)
	} else if occ < occupancyTarget/16 {
		s.width = math.Min(s.width*2, s.quantum)
	}
	s.placed = 0

	s.rebase(earliest)
	if !(s.nearEnd > earliest) {
		// Degenerate re-base: the bucket window cannot advance past
		// earliest — Infinity sentinels, or float granularity at huge
		// timestamps where earliest+span rounds back to earliest. Move
		// the entries at exactly that timestamp straight into the side
		// heap (which orders them by sequence) so front() can serve
		// them; later timestamps, if any, wait for the next roll.
		for len(s.spill) > 0 && s.spill[0].at == earliest {
			var e entry
			s.spill, e = heapPop(s.spill)
			s.side = heapPush(s.side, e)
		}
		return
	}
	for len(s.spill) > 0 && s.spill[0].at < s.nearEnd {
		var e entry
		s.spill, e = heapPop(s.spill)
		s.count--
		if idx := s.insert(e); idx > 0 {
			if fo := e.ev.fan; fo != nil && fo.packed {
				s.buckets[idx].extra += len(fo.m) - 1
			}
		}
	}
}

// smallRun is the slot size up to which orderRun finishes with an
// insertion sort instead of distributing further.
const smallRun = 32

// key returns the entry's ordering key as an unsigned integer: the bit
// pattern of its timestamp (sign cleared, so -0 and +0 agree), which
// orders like the timestamp because no event is scheduled before time
// zero, or its sequence number when bySeq is set.
func (e *entry) key(bySeq bool) uint64 {
	if bySeq {
		return e.seq
	}
	return math.Float64bits(float64(e.at)) &^ (1 << 63)
}

// orderRun sorts a run by (at, seq) by distributing it on its
// timestamps rather than comparing them (the ladder queue's answer to
// an overfull bucket is a finer rung, not a comparison sort). The run's
// key span is cut into at most len(h)/4 slots by a shift of key-lo, a
// monotone slot function; an in-place American flag sort moves every
// entry into its slot, and each slot is ordered the same way in turn,
// by insertion sort once it is small. A slot whose entries share one
// timestamp distributes on their sequence numbers instead. Levels keep
// their slot bounds on the s.slots stack from top up.
func (s *Simulator) orderRun(h []entry, top int) {
	if len(h) <= smallRun {
		insertionSort(h)
		return
	}
	lo, hi := keySpan(h, false)
	bySeq := lo == hi
	if bySeq {
		if lo, hi = keySpan(h, true); lo == hi {
			return // every key equal: any order is sorted
		}
	}
	shift := max(bits.Len64(hi-lo)-bits.Len(uint(len(h)/8)), 0)
	ns := int((hi-lo)>>shift) + 1
	if len(s.slots) < top+2*ns {
		// Room for one bound per entry: the levels below fit as well.
		s.slots = slices.Grow(s.slots[:top], len(h))
		s.slots = s.slots[:cap(s.slots)]
	}
	// end[i] is where slot i ends once the run is distributed; next[i]
	// is where its next entry goes meanwhile.
	end, next := s.slots[top:top+ns], s.slots[top+ns:top+2*ns]
	clear(end)
	for i := range h {
		end[(h[i].key(bySeq)-lo)>>shift]++
	}
	var at int32
	for i, c := range end {
		next[i] = at
		at += c
		end[i] = at
	}
	for i := range end {
		for next[i] < end[i] {
			e := h[next[i]]
			for j := int((e.key(bySeq) - lo) >> shift); j != i; j = int((e.key(bySeq) - lo) >> shift) {
				e, h[next[j]] = h[next[j]], e
				next[j]++
			}
			h[next[i]] = e
			next[i]++
		}
	}
	var from int32
	for _, to := range end {
		if to-from > 1 {
			s.orderRun(h[from:to], top+ns)
		}
		from = to
	}
}

// keySpan returns the least and greatest key in h.
func keySpan(h []entry, bySeq bool) (lo, hi uint64) {
	lo, hi = h[0].key(bySeq), h[0].key(bySeq)
	for i := 1; i < len(h); i++ {
		k := h[i].key(bySeq)
		lo, hi = min(lo, k), max(hi, k)
	}
	return lo, hi
}

// insertionSort sorts a short run by (at, seq).
func insertionSort(h []entry) {
	for i := 1; i < len(h); i++ {
		e := h[i]
		j := i - 1
		for j >= 0 && e.less(h[j]) {
			h[j+1] = h[j]
			j--
		}
		h[j+1] = e
	}
}

// 4-ary min-heap of entries ordered by (at, seq), shared by the
// imminent side tier and the spill tier. The wide fan-out halves the
// depth of a binary layout and the value entries keep sift loops in
// cache.

func heapPush(h []entry, e entry) []entry {
	h = append(h, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !h[i].less(h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	return h
}

func heapPop(h []entry) ([]entry, entry) {
	root := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h[last] = entry{}
	h = h[:last]
	if last > 0 {
		heapDown(h, 0)
	}
	return h, root
}

func heapDown(h []entry, i int) {
	n := len(h)
	for {
		first := 4*i + 1
		if first >= n {
			return
		}
		c := first
		last := first + 4
		if last > n {
			last = n
		}
		for j := first + 1; j < last; j++ {
			if h[j].less(h[c]) {
				c = j
			}
		}
		if !h[c].less(h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// Every runs fn first at now+offset and then every period after that
// (offset 0 fires at the current instant). The returned Ticker can be
// stopped.
func (s *Simulator) Every(offset, period Duration, fn func()) *Ticker {
	if period <= 0 {
		panic("des: non-positive ticker period")
	}
	t := &Ticker{sim: s, period: period, fn: fn}
	t.fireFn = t.fire // bound once; rescheduling reuses it allocation-free
	t.handle = s.After(offset, t.fireFn)
	return t
}

// Ticker is a periodic event created by Every. Each firing reuses the
// ticker's bound callback and a pooled event record, so a long-lived
// ticker costs no allocation per period.
type Ticker struct {
	sim     *Simulator
	period  Duration
	fn      func()
	fireFn  func()
	handle  Handle
	stopped bool
}

func (t *Ticker) fire() {
	if t.stopped {
		return
	}
	t.fn()
	if !t.stopped { // fn may have stopped us
		t.handle = t.sim.After(t.period, t.fireFn)
	}
}

// Stop cancels future firings. It is idempotent.
func (t *Ticker) Stop() {
	if t.stopped {
		return
	}
	t.stopped = true
	t.handle.Cancel()
}

// popKnown removes the entry f, which must be the pointer front just
// returned (either the side-heap root or the run head). Splitting peek
// and pop this way lets the execution loop evaluate the two-head
// minimum once per event instead of twice.
func (s *Simulator) popKnown(f *entry) {
	s.count--
	if len(s.side) > 0 && f == &s.side[0] {
		s.side, _ = heapPop(s.side)
		return
	}
	s.head++
}

// runEvent pops the live entry f that next just returned and runs its
// event at its timestamp. A fan-out member takes its word from the
// batch by its sequence number; the shared record recycles with the
// batch after the last member.
func (s *Simulator) runEvent(f *entry) {
	at, seq, ev := f.at, f.seq, f.ev
	s.popKnown(f)
	s.now = at
	fn, arg, u := ev.fn, ev.arg, ev.u
	if fo := ev.fan; fo != nil {
		u = fo.m[seq-fo.seq].u
		if fo.left--; fo.left == 0 {
			s.freeFanout(fo)
			s.recycle(ev)
		}
	} else {
		s.recycle(ev)
	}
	s.executed++
	fn(arg, u)
}

// next returns the next live entry, the one with the minimal (at, seq)
// key, when its timestamp is at or before limit, and nil otherwise. On
// the way it unpacks a packed fan-out that reached the front through
// the side heap (its entry becomes its earliest member's) and reclaims
// cancelled entries.
func (s *Simulator) next(limit Time) *entry {
	for {
		f := s.front()
		if f == nil || f.at > limit {
			return nil
		}
		ev := f.ev
		if fo := ev.fan; fo != nil && fo.packed {
			s.unpack(*f, nil)
			continue
		}
		if ev.dead {
			s.popKnown(f)
			s.recycle(ev)
			continue
		}
		return f
	}
}

// Step executes the single next event, discarding cancelled entries it
// meets on the way. It reports false when the queue is empty.
func (s *Simulator) Step() bool {
	f := s.next(Infinity)
	if f == nil {
		return false
	}
	s.runEvent(f)
	return true
}

// Run executes events until the queue drains and returns the final
// simulated time.
func (s *Simulator) Run() Time {
	for s.Step() {
	}
	return s.now
}

// RunUntil executes events with timestamps <= t and then sets the clock
// to exactly t. It is the building block for phased experiments
// (warm-up, measure, tear-down).
func (s *Simulator) RunUntil(t Time) {
	if t < s.now {
		panic(fmt.Sprintf("des: RunUntil(%v) before now %v", t, s.now))
	}
	for f := s.next(t); f != nil; f = s.next(t) {
		s.runEvent(f)
	}
	s.now = t
}
