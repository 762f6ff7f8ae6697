// Package georoute implements the location-based unicast routing the
// paper delegates to ("we assume to use some location-based unicast
// routing algorithm to send a packet from one logical hypercube to its
// next hop logical hypercube", §4.3): greedy geographic forwarding with
// a right-hand-rule perimeter recovery on a Gabriel-planarized neighbor
// graph, following GPSR [11], which the paper itself cites for the
// recovery strategy.
//
// The router is hop-by-hop: each forwarding decision uses only the
// current node's neighbor positions and the packet's target coordinates,
// exactly the locality property that makes location-based routing scale.
// That locality is also what lets relay hops execute on the sharded
// kernel's parallel lanes: a forwarding decision reads positions and
// transmits through one network.Lane, and all its scratch state —
// neighbor buffers, header and envelope pools, the kind-interning
// caches, the drop counters — lives in a per-lane rlane, so concurrent
// lanes never share a mutable word. Consumption (Delivered, consumer
// dispatch) only ever runs in serial context: a delivery at the final
// destination is never shard-confined, so the network executes it on
// the global lane.
package georoute

import (
	"math"
	"strings"

	"repro/internal/geom"
	"repro/internal/network"
)

// KindPrefix prefixes the packet kind of geo-routed envelopes; the full
// kind is KindPrefix + inner.Kind, so traffic accounting attributes the
// envelope to the protocol plane it carries. It is also the confined
// namespace the network's sharding is told about: relay deliveries of
// these kinds may run on shard lanes.
const KindPrefix = "geo:"

// Kind is the bare envelope kind used when the inner kind is empty.
const Kind = "geo"

// HeaderSize is the on-air overhead of the geo envelope in bytes:
// target position (16), final destination (4), mode+entry distance (12),
// TTL and flags (4).
const HeaderSize = 36

// DefaultTTL bounds the physical hop count of one geo-routed packet.
const DefaultTTL = 128

// Header is the geo-routing envelope around an inner packet. Field
// order is part of the hot path: every per-hop decision touches
// FinalDst, Inner, Target, TTL, Hops, and Recovering, so they lead the
// struct and share its first cache line; the perimeter-recovery state
// (rare) trails.
type Header struct {
	// FinalDst, when not NoNode, names the node that should consume the
	// inner packet; the packet completes at FinalDst, or at the node
	// closest to Target when FinalDst is NoNode (anycast-to-location).
	FinalDst network.NodeID
	// Inner is the encapsulated upper-layer packet.
	Inner *network.Packet
	// Target is the geographic destination the greedy mode steers to.
	Target geom.Point
	// TTL is the remaining physical hop budget.
	TTL int
	// Hops counts physical transmissions of this envelope; it is copied
	// to the inner packet on delivery so end-to-end hop metrics survive
	// per-hop re-encapsulation.
	Hops int
	// Perimeter mode state: whether we are in recovery, the distance to
	// target at which recovery was entered, and the previous hop (for
	// the right-hand rule).
	Recovering bool
	EntryDist  float64
	PrevHop    network.NodeID
	// Visited marks nodes traversed while in recovery. Real GPSR's face
	// routing is loop-free by construction; this simplified right-hand
	// traversal only prefers unvisited perimeter neighbors. Once none is
	// left it steps to visited ones, so a walk around a destination it
	// cannot reach ends only when TTL runs out.
	Visited map[network.NodeID]bool
}

// DeliverFunc consumes an inner packet that reached its destination.
type DeliverFunc func(n *network.Node, inner *network.Packet)

// DropCause names why the router abandoned an inner packet.
type DropCause uint8

// The drop causes, one per place forward or onPacket gives a packet up.
const (
	DropTTL       DropCause = iota // hop budget spent
	DropVoid                       // local maximum at a node with no Gabriel neighbor
	DropDeadEnd                    // perimeter walk reached a node with no Gabriel neighbor
	DropTxFailed                   // next hop down or out of range at send time
	DropMalformed                  // envelope without a geo header
	NumDropCauses
)

var dropCauseNames = [NumDropCauses]string{
	"ttl", "void with no perimeter", "perimeter dead end", "tx failed", "malformed envelope",
}

// String implements fmt.Stringer.
func (c DropCause) String() string { return dropCauseNames[c] }

// rlane is the router's per-lane state: everything a forwarding
// decision mutates. One exists per shard lane (one total when the
// network is unsharded); a decision executing on lane i touches only
// rl[i] and lane-i network state.
type rlane struct {
	lane *network.Lane

	// envKinds interns the "geo:"+inner.Kind envelope kinds so the
	// per-hop envelope needs no string concatenation; the one-entry
	// cache rides same-kind bursts.
	envKinds   map[string]string
	lastEnvIn  string
	lastEnvOut string

	// nbrBuf/nbrPos and gabBuf/gabPos are reused neighbor scratch
	// buffers (IDs and parallel exact positions); forwarding decisions
	// are not re-entrant within a lane, so one set suffices per lane.
	nbrBuf []network.NodeID
	nbrPos []geom.Point
	gabBuf []network.NodeID
	gabPos []geom.Point

	// freeHdr pools Headers: one is live per geo-routed packet from
	// Send to consume/drop, so steady-state forwarding allocates none.
	// A header acquired on one lane may release on another; only the
	// pooling is lane-local, never the lifetime.
	freeHdr []*Header

	// dropped counts inner packets abandoned on this lane by cause;
	// drops can happen mid-relay, hence per-lane. Read via Router.Drops.
	dropped [NumDropCauses]uint64
}

// Router performs geographic unicast over one network. One router is
// shared by all protocol planes of a mux (see Attach); each plane
// registers consumers for its own inner packet kinds.
type Router struct {
	net *network.Network

	consumers       map[string]DeliverFunc
	fallbackDeliver DeliverFunc
	// Delivered counts inner packets consumed, for experiments
	// (serial-only, like all consumption).
	Delivered uint64

	rl []rlane
}

// auxKey identifies the shared router on a mux.
const auxKey = "georoute"

// Attach returns the mux's shared router, creating and registering it on
// first use. Envelopes are dispatched through the mux fallback by their
// KindPrefix, so protocol planes can register exact kinds freely.
func Attach(net *network.Network, mux *network.Mux) *Router {
	if r, ok := mux.Aux(auxKey).(*Router); ok {
		return r
	}
	r := &Router{
		net:       net,
		consumers: make(map[string]DeliverFunc),
	}
	r.growLanes(1)
	net.OnShard(r.growLanes)
	mux.SetAux(auxKey, r)
	mux.Handle(Kind, r.onPacket)
	mux.HandleFallback(func(n *network.Node, from network.NodeID, pkt *network.Packet) {
		if strings.HasPrefix(pkt.Kind, KindPrefix) {
			r.onPacket(n, from, pkt)
		}
	})
	return r
}

// growLanes sizes the per-lane state to k lanes (registered with the
// network's OnShard hook, and called once directly for the serial lane).
func (r *Router) growLanes(k int) {
	for len(r.rl) < k {
		r.rl = append(r.rl, rlane{
			lane:     r.net.LaneAt(len(r.rl)),
			envKinds: make(map[string]string),
			nbrPos:   make([]geom.Point, 0, 32),
			gabPos:   make([]geom.Point, 0, 32),
		})
	}
}

// Drops returns how many inner packets were abandoned, by cause,
// folded across lanes.
func (r *Router) Drops() [NumDropCauses]uint64 {
	var d [NumDropCauses]uint64
	for i := range r.rl {
		for c, n := range r.rl[i].dropped {
			d[c] += n
		}
	}
	return d
}

// Dropped returns how many inner packets were abandoned, all causes.
func (r *Router) Dropped() uint64 {
	var n uint64
	for _, c := range r.Drops() {
		n += c
	}
	return n
}

// Deliver registers the consumer for inner packets of the given kind,
// replacing any previous registration.
func (r *Router) Deliver(kind string, fn DeliverFunc) {
	r.consumers[kind] = fn
}

// DeliverFallback registers the consumer for inner kinds with no exact
// registration.
func (r *Router) DeliverFallback(fn DeliverFunc) { r.fallbackDeliver = fn }

// Send geo-routes inner from the node `from` toward the target
// position, to be consumed by final (or by the node nearest the target
// if final is NoNode). It reports whether a first transmission was made
// (or the packet was consumed locally). Send runs in serial context
// (protocol timers and consumes are global events); the first hop
// executes on lane 0.
//
// A pooled inner packet is kept alive by the per-hop envelopes that
// carry it (AdoptPacket): whichever way a hop ends — delivered,
// dropped, or lost in flight — recycling the envelope releases its
// reference, so callers may release theirs as soon as Send returns.
func (r *Router) Send(from network.NodeID, target geom.Point, final network.NodeID, inner *network.Packet) bool {
	n := r.net.Node(from)
	if n == nil || !n.Up() {
		return false
	}
	rl := &r.rl[r.net.ExecLaneIdx(from)]
	h := r.acquireHeader(rl)
	h.Target, h.FinalDst = target, final
	h.TTL = DefaultTTL
	h.PrevHop = network.NoNode
	h.Inner = inner
	return r.forward(rl, n, h)
}

// acquireHeader takes a zeroed Header from the lane's pool.
func (r *Router) acquireHeader(rl *rlane) *Header {
	if n := len(rl.freeHdr); n > 0 {
		h := rl.freeHdr[n-1]
		rl.freeHdr = rl.freeHdr[:n-1]
		return h
	}
	return &Header{}
}

// releaseHeader recycles a Header whose packet reached its end of life
// (consumed or dropped); headers on envelopes lost in flight are simply
// garbage collected.
func (r *Router) releaseHeader(rl *rlane, h *Header) {
	*h = Header{}
	rl.freeHdr = append(rl.freeHdr, h)
}

// envKind returns the interned envelope kind for an inner kind.
func (r *Router) envKind(rl *rlane, inner string) string {
	if inner == "" {
		return Kind
	}
	if inner == rl.lastEnvIn {
		return rl.lastEnvOut
	}
	k, ok := rl.envKinds[inner]
	if !ok {
		k = KindPrefix + inner
		rl.envKinds[inner] = k
	}
	rl.lastEnvIn, rl.lastEnvOut = inner, k
	return k
}

// envelope wraps the header in a pooled per-hop packet; transmit
// releases it once the network has taken its in-flight references.
func (r *Router) envelope(rl *rlane, h *Header) *network.Packet {
	p := rl.lane.AcquirePacket()
	p.Kind = r.envKind(rl, h.Inner.Kind)
	p.Src = h.Inner.Src
	p.Dst = h.FinalDst
	p.Group = h.Inner.Group
	p.Size = h.Inner.Size + HeaderSize
	p.Control = h.Inner.Control
	p.Born = h.Inner.Born
	p.UID = h.Inner.UID
	p.Payload = h
	rl.lane.AdoptPacket(p, h.Inner) // inner lives as long as its envelope
	return p
}

func (r *Router) onPacket(n *network.Node, from network.NodeID, pkt *network.Packet) {
	rl := &r.rl[r.net.ExecLaneIdx(n.ID)]
	h, ok := pkt.Payload.(*Header)
	if !ok {
		rl.dropped[DropMalformed]++
		return
	}
	h.PrevHop = from
	r.forward(rl, n, h)
}

// forward makes one forwarding decision at node n, on lane rl.
func (r *Router) forward(rl *rlane, n *network.Node, h *Header) bool {
	// Arrived at the named destination? (Checked before computing the
	// node's position — consumption doesn't need it, and logical-hop
	// traffic terminates here once per hop.)
	if h.FinalDst == n.ID {
		r.consume(rl, n, h)
		return true
	}
	pos := rl.lane.TruePosOf(n.ID)
	// Anycast completion: nobody closer to the target.
	next := rl.lane.GreedyNext(n.ID, h.Target)
	if h.FinalDst == network.NoNode && next == network.NoNode && !h.Recovering {
		r.consume(rl, n, h)
		return true
	}
	if h.TTL <= 0 {
		r.drop(rl, h, DropTTL)
		return false
	}
	h.TTL--

	if h.Recovering {
		// Exit recovery as soon as greedy progress is again possible
		// relative to the entry point (GPSR's rule).
		if pos.Dist(h.Target) < h.EntryDist && next != network.NoNode {
			h.Recovering = false
			h.Visited = nil
		} else {
			h.Visited[n.ID] = true
			peri := r.perimeterNext(rl, n, pos, h)
			if peri == network.NoNode {
				r.drop(rl, h, DropDeadEnd)
				return false
			}
			return r.transmit(rl, n, peri, h)
		}
	}
	if next == network.NoNode {
		// Local maximum: enter perimeter mode.
		h.Recovering = true
		h.EntryDist = pos.Dist(h.Target)
		h.Visited = map[network.NodeID]bool{n.ID: true}
		peri := r.perimeterNext(rl, n, pos, h)
		if peri == network.NoNode {
			r.drop(rl, h, DropVoid)
			return false
		}
		return r.transmit(rl, n, peri, h)
	}
	return r.transmit(rl, n, next, h)
}

func (r *Router) transmit(rl *rlane, n *network.Node, to network.NodeID, h *Header) bool {
	env := r.envelope(rl, h)
	ok := rl.lane.Unicast(n.ID, to, env)
	rl.lane.ReleasePacket(env) // in-flight references keep it alive
	if !ok {
		r.drop(rl, h, DropTxFailed)
		return false
	}
	h.Hops++
	return true
}

// consume hands the inner packet to its registered consumer. Only ever
// reached in serial context: a delivery at FinalDst is not
// shard-confined (the network keeps it on the global lane), and the
// anycast completion path only exists for FinalDst == NoNode envelopes,
// which are global too.
func (r *Router) consume(rl *rlane, n *network.Node, h *Header) {
	r.Delivered++ //hvdb:serialonly consume deliveries (to == FinalDst, or anycast) are global events; the network pins them to the serial lane, never inside a window
	h.Inner.Hops += h.Hops
	fn, ok := r.consumers[h.Inner.Kind]
	if !ok {
		fn = r.fallbackDeliver
	}
	if fn != nil {
		fn(n, h.Inner)
	}
	r.releaseHeader(rl, h)
}

func (r *Router) drop(rl *rlane, h *Header, why DropCause) {
	rl.dropped[why]++
	r.releaseHeader(rl, h)
}

// perimeterNext applies the right-hand rule on the Gabriel-planarized
// neighbor subgraph: take the first edge counterclockwise from the edge
// back to the previous hop (or from the direction toward the target when
// entering recovery). It returns NoNode only when n has no Gabriel
// neighbor; otherwise some neighbor, the previous hop as a last resort,
// always qualifies.
func (r *Router) perimeterNext(rl *rlane, n *network.Node, pos geom.Point, h *Header) network.NodeID {
	nbrs := r.gabrielNeighbors(rl, n, pos)
	if len(nbrs) == 0 {
		return network.NoNode
	}
	var refAngle float64
	if h.PrevHop != network.NoNode && r.net.Node(h.PrevHop) != nil {
		refAngle = rl.lane.TruePosOf(h.PrevHop).Sub(pos).Angle()
	} else {
		refAngle = h.Target.Sub(pos).Angle()
	}
	best := network.NoNode
	bestDelta := math.Inf(1)
	// First pass prefers unvisited neighbors; the second allows visited
	// ones when nothing new remains, which lets the walk back out of a
	// dead-end spur. Nothing bounds how often it revisits a node: a walk
	// that cannot reach its destination cycles until TTL runs out.
	for pass := 0; pass < 2 && best == network.NoNode; pass++ {
		for i, id := range nbrs {
			if id == h.PrevHop && len(nbrs) > 1 {
				continue // only return to sender as a last resort
			}
			if pass == 0 && h.Visited[id] {
				continue
			}
			if pass == 1 && !h.Visited[id] {
				continue // covered in pass 0
			}
			a := rl.gabPos[i].Sub(pos).Angle()
			delta := math.Mod(a-refAngle+4*math.Pi, 2*math.Pi)
			if delta == 0 {
				delta = 2 * math.Pi
			}
			if delta < bestDelta {
				best, bestDelta = id, delta
			}
		}
		if pass == 1 {
			break
		}
	}
	if best == network.NoNode && h.PrevHop != network.NoNode {
		return h.PrevHop
	}
	return best
}

// gabrielNeighbors filters n's physical neighbors to the Gabriel graph:
// edge (u, v) survives iff no common neighbor lies inside the disc with
// diameter uv. The Gabriel graph is planar and connectivity-preserving,
// the standard GPSR planarization.
// gabrielNeighbors returns the surviving neighbor IDs with their
// positions in rl.gabPos (parallel), for the caller's angle computations.
func (r *Router) gabrielNeighbors(rl *rlane, n *network.Node, pos geom.Point) []network.NodeID {
	rl.nbrBuf, rl.nbrPos = rl.lane.NeighborsPos(n.ID, rl.nbrBuf[:0], rl.nbrPos[:0])
	nbrs, poss := rl.nbrBuf, rl.nbrPos
	out, outPos := rl.gabBuf[:0], rl.gabPos[:0]
	for i, v := range nbrs {
		vp := poss[i]
		mid := geom.Pt((pos.X+vp.X)/2, (pos.Y+vp.Y)/2)
		radius2 := pos.Dist2(vp) / 4
		keep := true
		for j, w := range nbrs {
			if w == v {
				continue
			}
			if poss[j].Dist2(mid) < radius2 {
				keep = false
				break
			}
		}
		if keep {
			out = append(out, v)
			outPos = append(outPos, vp)
		}
	}
	rl.gabBuf, rl.gabPos = out, outPos // keep capacity for the next decision
	return out
}
