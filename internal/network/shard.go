package network

import (
	"fmt"
	"math"

	"repro/internal/des"
	"repro/internal/geom"
)

// shard.go: the network side of the sharded kernel. EnableSharding
// binds the network to a des.Sharded engine: nodes are assigned to
// spatial stripes, each stripe gets its own laneState (position memos,
// neighbor memo, traffic counters, packet pool), and confined
// deliveries — geo-routed relay hops whose handler only touches the
// receiving node and its own lane — execute on per-shard lanes inside
// the engine's conservative windows. Everything else (broadcasts,
// timers, consumes, topology directives) stays on the global lane and
// runs serially, which is what keeps results bit-identical at any
// shard count. DESIGN.md ("Sharded kernel") carries the full argument.

// Lane is a shard-local view of the network: the query and transmit
// surface routing handlers need, resolved against one shard's lane
// state and clock. Inside a parallel window a handler must touch the
// network only through its shard's Lane; outside windows every Lane
// reads the serial clock and lane 0's view is exactly the plain
// Network API, so routing code uses one code path for both regimes.
type Lane struct {
	w   *Network
	idx int
}

// Now returns the lane's clock: the executing lane event's timestamp
// inside a parallel window, the serial simulator clock otherwise.
func (l *Lane) Now() des.Time {
	if l.w.eng != nil && l.w.eng.InParallel() {
		return l.w.eng.LaneNow(l.idx)
	}
	return l.w.sim.Now()
}

// TruePosOf returns a node's exact position at the lane's current time,
// through the lane's own memo.
func (l *Lane) TruePosOf(id NodeID) geom.Point {
	return l.w.truePosAt(l.w.lane(l.idx), id, l.Now())
}

// NeighborsPos is Network.NeighborsPos against the lane's memo and
// clock.
func (l *Lane) NeighborsPos(id NodeID, ids []NodeID, pos []geom.Point) ([]NodeID, []geom.Point) {
	mi, mp := l.w.neighborMemo(l.w.lane(l.idx), l.Now(), id)
	return append(ids, mi...), append(pos, mp...)
}

// GreedyNext returns the neighbour of id strictly closer to target than
// id itself, nearest first — greedy geographic forwarding's next hop —
// or NoNode when none makes progress. It is the first minimum, under
// strict <, over NeighborsPos's list in order, found without building
// the list (see greedyNextLS).
func (l *Lane) GreedyNext(id NodeID, target geom.Point) NodeID {
	return l.w.greedyNextLS(l.w.lane(l.idx), l.Now(), id, target)
}

// Unicast is Network.Unicast charged to the lane's counters and clock.
func (l *Lane) Unicast(from, to NodeID, pkt *Packet) bool {
	return l.w.unicastLS(l.w.lane(l.idx), l.Now(), from, to, pkt)
}

// AcquirePacket draws from the lane's packet pool.
func (l *Lane) AcquirePacket() *Packet { return l.w.acquirePacketLS(l.w.lane(l.idx)) }

// ReleasePacket returns a reference to the lane's pool.
func (l *Lane) ReleasePacket(p *Packet) { l.w.releasePacketLS(l.w.lane(l.idx), p) }

// AdoptPacket pins child to parent's lifetime (see Network.AdoptPacket).
func (l *Lane) AdoptPacket(parent, child *Packet) { l.w.AdoptPacket(parent, child) }

// lane returns shard i's lane state; lane 0 is the Network's embedded
// (serial) state.
func (w *Network) lane(i int) *laneState {
	if i == 0 {
		return &w.laneState
	}
	return &w.aux[i-1]
}

// LaneAt returns the stable view of lane i. Lane 0 is valid before
// EnableSharding — routing layers bind to it unconditionally and gain
// extra lanes through OnShard.
func (w *Network) LaneAt(i int) *Lane {
	for len(w.laneViews) <= i {
		w.laneViews = append(w.laneViews, Lane{w: w, idx: len(w.laneViews)})
	}
	return &w.laneViews[i]
}

// ExecLaneIdx returns the lane on which state keyed by node id must be
// accessed right now: the node's shard inside a parallel window, lane 0
// (serial) otherwise. Delivery handlers use it to pick their per-lane
// scratch.
func (w *Network) ExecLaneIdx(id NodeID) int {
	if w.eng != nil && w.eng.InParallel() {
		return int(w.shardOf[id])
	}
	return 0
}

// OnShard registers a hook called with the shard count when sharding is
// enabled — immediately, if it already is. Routing layers use it to
// size their per-lane state.
func (w *Network) OnShard(fn func(k int)) {
	w.onShard = append(w.onShard, fn)
	if w.eng != nil {
		fn(w.eng.Shards())
	}
}

// Grain returns the smallest radio hop-delay quantum admitted so far
// (0 before the first node). It is the natural conservative lookahead:
// no transmission can deliver sooner than one quantum after its send.
func (w *Network) Grain() float64 { return w.grain }

// EnableSharding binds the network to eng. confinedPrefix names the
// packet-kind prefix whose relay deliveries are confined to the
// receiver's shard (the geo-routing envelope namespace); the network
// does not know the routing layer's kind space, so the caller supplies
// it. On error the network is left unsharded and fully functional —
// callers fall back to the serial path.
func (w *Network) EnableSharding(eng *des.Sharded, confinedPrefix string) error {
	if w.eng != nil {
		return fmt.Errorf("network: sharding already enabled")
	}
	if eng.Sim() != w.sim {
		return fmt.Errorf("network: engine wraps a different simulator")
	}
	if confinedPrefix == "" {
		return fmt.Errorf("network: empty confined-kind prefix would confine every delivery")
	}
	l := eng.Lookahead()
	if w.grain == 0 || des.Duration(w.grain) < l {
		return fmt.Errorf("network: radio grain %v below the engine lookahead %v", w.grain, l)
	}
	for _, n := range w.nodes {
		if q := n.pre.DelayQuantum(); des.Duration(q) < l {
			return fmt.Errorf("network: node %d hop-delay quantum %v below the lookahead %v", n.ID, q, l)
		}
		if span := w.safeSpan(&w.sp[n.ID]); span < l {
			return fmt.Errorf("network: node %d drift consumes the index slack in %v, below the lookahead %v", n.ID, span, l)
		}
	}
	w.eng = eng
	w.confinedPrefix = confinedPrefix
	k := eng.Shards()
	w.shardOf = make([]int32, len(w.nodes))
	w.aux = make([]laneState, k-1)
	for i := range w.aux {
		w.initLane(&w.aux[i], len(w.nodes))
	}
	w.LaneAt(k - 1) // materialize all lane views
	w.pieces = w.pieces[:0]
	for _, n := range w.nodes {
		sp := &w.sp[n.ID]
		w.shardOf[n.ID] = w.stripeOf(sp.anchorPos)
		if end := des.Time(sp.mob.PieceEnd()); end < des.Infinity {
			w.piecePush(pieceEntry{end: end, id: n.ID})
		}
	}
	eng.Prepare = w.prepareWindow
	for _, fn := range w.onShard {
		fn(k)
	}
	return nil
}

// stripeOf maps a position to its spatial stripe: k equal-width
// vertical bands over the arena, clamped so out-of-arena wanderers land
// in the border stripes. Stripes are assigned once, from the node's
// entry position — a static map keeps shardOf reads race-free from
// every lane, and correctness never depends on the assignment (only
// the confined-traffic locality, and hence the speedup, does).
func (w *Network) stripeOf(p geom.Point) int32 {
	k := int32(w.eng.Shards())
	s := int32((p.X - w.arena.Min.X) / w.arena.W() * float64(k))
	if s < 0 {
		s = 0
	} else if s >= k {
		s = k - 1
	}
	return s
}

// prepareWindow is the engine's Prepare hook, run serially at every
// window barrier over [tmin, bound]. It makes everything lane handlers
// read pure over query instants in the window:
//
//   - Mobility pieces: models mutate state (and draw randomness) only
//     at piece crossings, so every piece ending at or before tmin is
//     advanced here, in deterministic (end, id) heap order. The
//     returned cap is the earliest remaining boundary: an event at or
//     past it would query across a crossing, so the engine keeps the
//     window strictly below it (the cap exceeds tmin by construction,
//     so windows always make progress). Advancing at the barrier
//     instead of first-query is invisible to results because crossing
//     times and draws are trajectory-intrinsic.
//   - The spatial index: refreshed up to the window end — but kept a
//     float ulp below the cap, so the refresh itself never crosses the
//     cap piece — after which every in-window refreshTo(now) finds
//     nothing expired and the scan structures stay read-only.
//
// Heap entries may be stale (serial-phase queries advance models
// without touching the heap) and are corrected lazily when they
// surface: stored ends only ever underestimate the true piece end, so
// the corrected top is a sound cap for the whole heap.
func (w *Network) prepareWindow(tmin, bound des.Time) des.Time {
	for len(w.pieces) > 0 {
		top := w.pieces[0]
		sp := &w.sp[top.id]
		end := des.Time(sp.mob.PieceEnd())
		if end != top.end {
			w.pieceFix(end) // stale entry: re-seat at the true end
			continue
		}
		if end > tmin {
			break
		}
		sp.mob.Advance(float64(tmin))
		w.pieceFix(des.Time(sp.mob.PieceEnd()))
	}
	pcap := des.Infinity
	if len(w.pieces) > 0 {
		pcap = w.pieces[0].end
	}
	rb := bound
	if c := des.Time(math.Nextafter(float64(pcap), math.Inf(-1))); c < rb {
		rb = c
	}
	w.refreshTo(rb)
	return pcap
}

// Piece heap: a min-heap of pieceEntry ordered by (end, id). Only the
// barrier (serial context) touches it.

func pieceLess(a, b pieceEntry) bool {
	if a.end != b.end {
		return a.end < b.end
	}
	return a.id < b.id
}

func (w *Network) piecePush(e pieceEntry) {
	h := append(w.pieces, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !pieceLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	w.pieces = h
}

// pieceFix re-seats the heap top at a new end time, removing it when
// the model has no further boundary.
func (w *Network) pieceFix(end des.Time) {
	h := w.pieces
	if end >= des.Infinity {
		n := len(h) - 1
		h[0] = h[n]
		h = h[:n]
		w.pieces = h
		if n == 0 {
			return
		}
	} else {
		h[0].end = end
	}
	i, n := 0, len(h)
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && pieceLess(h[l], h[m]) {
			m = l
		}
		if r < n && pieceLess(h[r], h[m]) {
			m = r
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}
