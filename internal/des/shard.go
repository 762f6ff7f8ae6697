package des

import (
	"fmt"
	"math"
)

// shard.go: the sharded execution engine. A Sharded wraps one Simulator
// (the "global lane": every event scheduled through the ordinary
// Schedule/After family) and adds k shard lanes, each a plain binary
// heap of self-contained events owned by one worker goroutine. The
// caller classifies events: anything whose handler only touches state
// owned by a single spatial shard (the network's unicast relay
// deliveries) may be placed on that shard's lane; everything else stays
// on the global lane and runs serially.
//
// # Execution discipline
//
// RunUntil alternates two regimes under the classic conservative
// (Chandy-Misra) synchronization argument specialized to a fixed
// lookahead L, the minimum radio hop delay (radio.Precomp.DelayQuantum):
//
//   - serial: while the global lane's front key (at, seq) precedes every
//     lane front, execute it on the wrapped Simulator exactly as an
//     unsharded run would.
//   - parallel: otherwise, open a window [tmin, min(tmin+L, t)] where
//     tmin is the earliest lane front, and let every lane drain its
//     events inside the window concurrently. A lane stops early at the
//     global front key and at the Prepare hook's exclusive cap (the
//     caller's own purity bound, e.g. the next mobility piece boundary).
//
// Lane handlers must not schedule directly: they log intents
// (LogIntent), tagged with the executing parent event's (at, seq) key.
// At the window barrier the per-lane intent logs — each already sorted
// by parent key, because a lane executes its events in key order — are
// k-way merged by parent key and only then draw sequence numbers from
// the single Simulator counter.
//
// # Why this is bit-identical to the serial run
//
// Lane delays are at least L, so an event executed in a window schedules
// only at or beyond the window's end: nothing executed in a window was
// scheduled in it, and the window's event set is fixed at the barrier
// before it opens. Every event the window runs precedes, in (at, seq)
// order, both the global front and everything scheduled at the barrier
// (barrier events carry fresh, larger seqs at times >= the window end).
// The window therefore executes exactly a downward-closed prefix of the
// serial execution order. Within it, the serial run would have executed
// the same events in parent-key order, drawing one seq per scheduled
// delivery as it went — which is precisely the merged order in which the
// barrier draws them. Seq values, timestamps, and executed-event counts
// are therefore equal to the serial run's, at any lane count.
type Sharded struct {
	sim       *Simulator
	k         int
	lookahead Time

	// Prepare, when set, runs at every window barrier before the window
	// opens: Prepare(tmin, bound) must make all state that lane handlers
	// read pure over query instants in [tmin, bound] and return an
	// exclusive cap (> tmin) beyond which purity is not yet guaranteed;
	// the window will not execute events at or past the cap. Return
	// Infinity when no cap applies.
	Prepare func(tmin, bound Time) Time

	lanes    [][]laneEntry // per-lane binary heaps by (at, seq)
	intents  [][]intent    // per-lane logs, owner-written during a window
	laneNow  []Time        // executing event's timestamp, per lane
	laneSeq  []uint64      // executing event's seq, per lane
	laneExec []uint64      // events run this window, folded at barrier
	cursor   []int         // barrier merge cursors

	inParallel bool
	start      []chan phaseBound
	done       chan struct{}
	workersUp  bool
}

// LaneFunc is the only handler shape lanes support: the unboxed-word
// form used by the network delivery path. Lane events have no Handles
// and cannot be cancelled.
type LaneFunc = func(any, uint64)

// laneEntry is one pending lane event. Unlike the Simulator's pooled
// event records, lane entries are self-contained values: no record
// pool, no Handle, no cross-goroutine sharing.
type laneEntry struct {
	at  Time
	seq uint64
	fn  LaneFunc
	arg any
	u   uint64
}

// intent is a deferred schedule request logged during a window, ordered
// for the barrier merge by the parent event's key (pAt, pSeq).
type intent struct {
	pAt  Time
	pSeq uint64
	at   Time
	lane int32 // target lane; laneGlobal = the wrapped Simulator
	fn   LaneFunc
	arg  any
	u    uint64
}

// LaneGlobal targets the wrapped Simulator (the serial lane) in
// LogIntent.
const LaneGlobal = -1

// phaseBound is the per-window execution bound handed to lane workers.
// An event runs iff its key precedes (gAt, gSeq), its time is <= maxAt,
// and its time is strictly below cap.
type phaseBound struct {
	gAt   Time
	gSeq  uint64
	maxAt Time
	cap   Time
}

// NewSharded wraps sim with a k-lane engine (k >= 2) using the given
// conservative lookahead (> 0), the minimum delay of any event a lane
// handler may schedule.
func NewSharded(sim *Simulator, k int, lookahead Time) *Sharded {
	if k < 2 {
		panic(fmt.Sprintf("des: NewSharded with %d lanes; sharding needs at least 2", k))
	}
	if lookahead <= 0 {
		panic(fmt.Sprintf("des: NewSharded with non-positive lookahead %v", lookahead))
	}
	e := &Sharded{
		sim:       sim,
		k:         k,
		lookahead: lookahead,
		lanes:     make([][]laneEntry, k),
		intents:   make([][]intent, k),
		laneNow:   make([]Time, k),
		laneSeq:   make([]uint64, k),
		laneExec:  make([]uint64, k),
		cursor:    make([]int, k),
		start:     make([]chan phaseBound, k),
		done:      make(chan struct{}, k),
	}
	for i := 1; i < k; i++ {
		e.start[i] = make(chan phaseBound, 1)
	}
	return e
}

// Sim returns the wrapped Simulator (the global lane).
func (e *Sharded) Sim() *Simulator { return e.sim }

// Shards returns the lane count k.
func (e *Sharded) Shards() int { return e.k }

// Lookahead returns the conservative window lookahead L.
func (e *Sharded) Lookahead() Time { return e.lookahead }

// InParallel reports whether a window is currently executing. Callers
// use it to pick between direct scheduling (serial context) and intent
// logging (lane context); reads from lane workers are ordered by the
// window open/close channel operations.
func (e *Sharded) InParallel() bool { return e.inParallel }

// LaneNow returns lane i's clock: the timestamp of its executing (or
// last executed) event. Only lane i's own worker may call this during a
// window.
func (e *Sharded) LaneNow(i int) Time { return e.laneNow[i] }

// ScheduleLaneDirect schedules a lane event from serial context. It
// draws the next sequence number from the wrapped Simulator's counter —
// exactly the seq an ordinary ScheduleCallU at this moment would have
// drawn, which is what makes routing an event to a lane instead of the
// global queue invisible to the total order. Must not be called from
// inside a window (lane context logs intents instead).
func (e *Sharded) ScheduleLaneDirect(lane int, at Time, fn LaneFunc, arg any, u uint64) {
	if at < e.sim.now {
		panic(fmt.Sprintf("des: scheduling at %v before now %v", at, e.sim.now))
	}
	e.lanePush(lane, laneEntry{at: at, seq: e.sim.ReserveSeqs(1), fn: fn, arg: arg, u: u})
}

// LogIntent records, from inside a window, that the event currently
// executing on fromLane wants fn(arg, u) to run at time at on
// targetLane (or LaneGlobal). The intent is materialized at the window
// barrier with a then-fresh sequence number; because per-lane logs are
// parent-key-sorted and parent keys are globally unique, the barrier's
// k-way merge reproduces the serial run's scheduling order exactly.
func (e *Sharded) LogIntent(fromLane, targetLane int, at Time, fn LaneFunc, arg any, u uint64) {
	e.intents[fromLane] = append(e.intents[fromLane], intent{
		pAt:  e.laneNow[fromLane],
		pSeq: e.laneSeq[fromLane],
		at:   at,
		lane: int32(targetLane),
		fn:   fn,
		arg:  arg,
		u:    u,
	})
}

// RunUntil executes global and lane events with timestamps <= t in the
// serial run's exact order, then sets the clock to t. It is the sharded
// counterpart of Simulator.RunUntil and leaves identical observable
// state (clock, seq counter, executed count, pending sets).
func (e *Sharded) RunUntil(t Time) {
	s := e.sim
	if t < s.now {
		panic(fmt.Sprintf("des: RunUntil(%v) before now %v", t, s.now))
	}
	defer e.stopWorkers()
	for {
		f := s.next(t)
		lAt, lSeq, lOK := e.minLaneKey()
		if lOK && lAt > t {
			lOK = false
		}
		if f == nil && !lOK {
			break
		}
		if f != nil && (!lOK || keyLess(f.at, f.seq, lAt, lSeq)) {
			// The global front precedes every lane front: run it exactly
			// as the serial simulator would.
			s.runEvent(f)
			continue
		}
		gAt, gSeq := Infinity, uint64(math.MaxUint64)
		if f != nil {
			gAt, gSeq = f.at, f.seq
		}
		e.window(t, gAt, gSeq, lAt)
	}
	s.now = t
}

// window opens one conservative synchronization window starting at the
// earliest lane front tmin and ending no later than t, lets every lane
// drain it concurrently, and runs the barrier.
func (e *Sharded) window(t Time, gAt Time, gSeq uint64, tmin Time) {
	bound := tmin + e.lookahead
	if bound > t {
		bound = t
	}
	cap := Infinity
	if e.Prepare != nil {
		cap = e.Prepare(tmin, bound)
	}
	e.ensureWorkers()
	b := phaseBound{gAt: gAt, gSeq: gSeq, maxAt: bound, cap: cap}
	e.inParallel = true
	for i := 1; i < e.k; i++ {
		e.start[i] <- b
	}
	e.runLane(0, b)
	for i := 1; i < e.k; i++ {
		<-e.done
	}
	e.inParallel = false
	e.barrier()
}

// runLane drains lane i up to the window bound. Only lane i's owner
// (worker goroutine, or the coordinator for lane 0) calls this.
func (e *Sharded) runLane(i int, b phaseBound) {
	for {
		h := e.lanes[i]
		if len(h) == 0 {
			return
		}
		f := h[0]
		if f.at > b.maxAt || f.at >= b.cap || !keyLess(f.at, f.seq, b.gAt, b.gSeq) {
			return
		}
		e.lanePop(i)
		e.laneNow[i] = f.at
		e.laneSeq[i] = f.seq
		e.laneExec[i]++
		f.fn(f.arg, f.u)
	}
}

// barrier folds the window's executed counts into the Simulator, merges
// the per-lane intent logs by parent key, and materializes each intent
// with a fresh sequence number in merged order (see the type comment
// for why this reproduces the serial seq assignment).
func (e *Sharded) barrier() {
	s := e.sim
	for i := 0; i < e.k; i++ {
		s.executed += e.laneExec[i]
		e.laneExec[i] = 0
		e.cursor[i] = 0
	}
	for {
		best := -1
		for i := 0; i < e.k; i++ {
			c := e.cursor[i]
			if c >= len(e.intents[i]) {
				continue
			}
			it := &e.intents[i][c]
			if best < 0 {
				best = i
				continue
			}
			bit := &e.intents[best][e.cursor[best]]
			if keyLess(it.pAt, it.pSeq, bit.pAt, bit.pSeq) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		it := &e.intents[best][e.cursor[best]]
		e.cursor[best]++
		seq := s.ReserveSeqs(1)
		if it.lane == LaneGlobal {
			s.ScheduleCallSeqU(it.at, seq, it.fn, it.arg, it.u)
		} else {
			e.lanePush(int(it.lane), laneEntry{at: it.at, seq: seq, fn: it.fn, arg: it.arg, u: it.u})
		}
		it.fn, it.arg = nil, nil // release references for the GC
	}
	for i := range e.intents {
		e.intents[i] = e.intents[i][:0]
	}
}

// minLaneKey returns the smallest (at, seq) across all lane fronts.
func (e *Sharded) minLaneKey() (Time, uint64, bool) {
	bestAt, bestSeq, ok := Time(0), uint64(0), false
	for i := range e.lanes {
		h := e.lanes[i]
		if len(h) == 0 {
			continue
		}
		if !ok || keyLess(h[0].at, h[0].seq, bestAt, bestSeq) {
			bestAt, bestSeq, ok = h[0].at, h[0].seq, true
		}
	}
	return bestAt, bestSeq, ok
}

// ensureWorkers starts the k-1 lane worker goroutines; RunUntil stops
// them on exit (stopWorkers) so abandoned engines never leak blocked
// goroutines.
func (e *Sharded) ensureWorkers() {
	if e.workersUp {
		return
	}
	e.workersUp = true
	for i := 1; i < e.k; i++ {
		go func(i int) {
			for b := range e.start[i] {
				e.runLane(i, b)
				e.done <- struct{}{}
			}
		}(i)
	}
}

func (e *Sharded) stopWorkers() {
	if !e.workersUp {
		return
	}
	for i := 1; i < e.k; i++ {
		close(e.start[i])
		e.start[i] = make(chan phaseBound, 1)
	}
	e.workersUp = false
}

// keyLess is the (at, seq) total order on event keys.
func keyLess(aAt Time, aSeq uint64, bAt Time, bSeq uint64) bool {
	if aAt != bAt {
		return aAt < bAt
	}
	return aSeq < bSeq
}

// lanePush inserts into lane i's binary heap.
func (e *Sharded) lanePush(i int, le laneEntry) {
	h := append(e.lanes[i], le)
	j := len(h) - 1
	for j > 0 {
		p := (j - 1) / 2
		if !keyLess(h[j].at, h[j].seq, h[p].at, h[p].seq) {
			break
		}
		h[j], h[p] = h[p], h[j]
		j = p
	}
	e.lanes[i] = h
}

// lanePop removes lane i's heap root.
func (e *Sharded) lanePop(i int) {
	h := e.lanes[i]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = laneEntry{} // release references for the GC
	h = h[:n]
	j := 0
	for {
		l, r := 2*j+1, 2*j+2
		m := j
		if l < n && keyLess(h[l].at, h[l].seq, h[m].at, h[m].seq) {
			m = l
		}
		if r < n && keyLess(h[r].at, h[r].seq, h[m].at, h[m].seq) {
			m = r
		}
		if m == j {
			break
		}
		h[j], h[m] = h[m], h[j]
		j = m
	}
	e.lanes[i] = h
}
