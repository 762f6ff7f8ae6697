package scenario

import (
	"slices"

	"repro/internal/des"
	"repro/internal/membership"
	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/stats"
)

// Counts is what a Meter measured between World.Meter and Close.
type Counts struct {
	// Sent counts successful sends; Expected the audience-member
	// deliveries those sends could have produced (live current members
	// at each send); Delivered those that arrived; Stale deliveries to
	// nodes outside the packet's send-time audience (e.g. members that
	// had already left) while the packet's entry was still open.
	Sent, Expected, Delivered, Stale int
	// MeanDelay, P50Delay, and P95Delay summarize end-to-end delivery
	// delay in seconds; MeanHops the hop count the arm reports per
	// delivery (logical hops on hvdb, physical on the flat schemes).
	MeanDelay, P50Delay, P95Delay float64
	MeanHops                      float64
	// CtrlPerNodeS is control overhead in bytes/node/second over the
	// metered span.
	CtrlPerNodeS float64
	// Jain is the forwarding-load fairness index over live nodes,
	// covering traffic since the last counter reset.
	Jain float64
	// Elapsed is the metered span in simulated seconds, drain included.
	Elapsed des.Duration
	// AudiencePeak is the high-water mark of concurrently tracked
	// audience entries — the meter's retained per-packet state is
	// bounded by the send rate over one TTL window, not by the total
	// packet count. AudienceOpen is how many entries were still tracked
	// at Close; it is 0 whenever the caller ran its drain (entries are
	// released when fully accounted or on TTL expiry), mirroring the
	// PooledInFlight()==0 pool-leak check.
	AudiencePeak, AudienceOpen int
	// DelaySamples is how many deliveries the delay histogram absorbed
	// (always equal to Delivered), and DelayDigest its full-state
	// fingerprint — the scengen harness asserts both are rerun-,
	// worker-, and shard-count-invariant.
	DelaySamples int
	DelayDigest  uint64
}

// PDR returns Delivered / Expected.
func (c Counts) PDR() float64 {
	if c.Expected == 0 {
		return 0
	}
	return float64(c.Delivered) / float64(c.Expected)
}

// Meter is the one delivery meter: scripts, experiments and hvdbsim
// send through Meter.Send on a protocol.Stack, and the paper's
// evaluation metrics — member deliveries against the group as it stood
// when the packet left, delay, control overhead, fairness — come out of
// Close.
//
// Join and Leave pass through to the stack and keep the meter's
// membership mirror, which starts as the world's preassigned groups; a
// caller that changes membership mid-measurement must do it through
// the meter, or the audience snapshots go stale.
//
// Known hole: a delivery the arm makes inside Send itself (the five
// baselines hand the packet to a source that is a member before Send
// returns) precedes the audience entry and is not counted, though the
// source is in Expected. Every recorded table was measured with this
// order, so it is kept; the fix belongs with the packet-fate ledger
// (ROADMAP item 1).
type Meter struct {
	w     *World
	stk   protocol.Stack
	ttl   des.Duration
	start des.Time
	ctrl0 uint64
	c     Counts

	// current mirrors the membership per group; audience holds, per sent
	// packet, the members still owed a delivery as one sorted slice
	// (snapshotted at the send, each member removed as its delivery is
	// counted, so an empty slice means fully accounted). Entries are
	// released when fully accounted or ttl after the send, whichever
	// comes first; audQ[audHead:] is the pending-expiry FIFO in send
	// order, so expiry is a deterministic O(1) front pop (send times are
	// nondecreasing).
	current  map[membership.Group]map[network.NodeID]bool
	audience map[uint64][]network.NodeID
	audQ     []audPending
	audHead  int
	// delays streams into a log-spaced histogram at delivery time: the
	// meter retains O(1) metric state, not one float64 per delivery.
	// Mean stays exact; P50/P95 carry the histogram's bounded relative
	// error (stats.LogHist.Percentile).
	delays stats.LogHist
	hops   int
}

// audPending queues one packet for TTL expiry.
type audPending struct {
	uid    uint64
	expire des.Time
}

// Meter starts measuring traffic on stk and takes over its delivery
// observer until Close. ttl bounds how long a packet's audience entry
// is retained and is the drain the caller runs after its last send:
// deliveries settle well inside it (that is what a drain is for), and
// since every entry then expires by the end of the drain, Close finds
// the audience empty. Building a meter schedules nothing and draws no
// randomness.
func (w *World) Meter(stk protocol.Stack, ttl des.Duration) *Meter {
	m := &Meter{
		w:        w,
		stk:      stk,
		ttl:      ttl,
		start:    w.Sim.Now(),
		ctrl0:    w.Net.Stats().ControlBytes,
		current:  make(map[membership.Group]map[network.NodeID]bool),
		audience: make(map[uint64][]network.NodeID),
	}
	for g, members := range w.Members {
		set := make(map[network.NodeID]bool, len(members))
		for _, id := range members {
			set[id] = true
		}
		m.current[g] = set
	}
	stk.Deliveries(m.onDeliver)
	return m
}

// Members returns the meter's live view of group g's membership. It is
// the mirror itself: read it, change it through Join and Leave.
func (m *Meter) Members(g membership.Group) map[network.NodeID]bool { return m.current[g] }

// Join enrolls id in g at the stack and in the mirror.
func (m *Meter) Join(id network.NodeID, g membership.Group) {
	m.stk.Join(id, g)
	if m.current[g] == nil {
		m.current[g] = make(map[network.NodeID]bool)
	}
	m.current[g][id] = true
}

// Leave removes id from g at the stack and in the mirror.
func (m *Meter) Leave(id network.NodeID, g membership.Group) {
	m.stk.Leave(id, g)
	delete(m.current[g], id)
}

// Send originates one packet through the stack and snapshots its
// audience: the current members of the group that are up right now. It
// returns the stack's uid, 0 when the send could not start (source
// down or unreachable: nothing on the air, nothing counted).
func (m *Meter) Send(src network.NodeID, g membership.Group, payload int) uint64 {
	now := m.w.Sim.Now()
	m.expire(now)
	uid := m.stk.Send(src, g, payload)
	if uid == 0 {
		return 0
	}
	m.c.Sent++
	members := m.current[g]
	aud := make([]network.NodeID, 0, len(members))
	for id := range members {
		if n := m.w.Net.Node(id); n != nil && n.Up() {
			aud = append(aud, id)
		}
	}
	m.audience[uid] = network.SortedIDs(aud)
	m.audQ = append(m.audQ, audPending{uid: uid, expire: now + m.ttl})
	if open := len(m.audience); open > m.c.AudiencePeak {
		m.c.AudiencePeak = open
	}
	m.c.Expected += len(aud)
	return uid
}

// onDeliver classifies one delivery against the packet's send-time
// audience and releases the entry once every member is accounted for.
func (m *Meter) onDeliver(member network.NodeID, uid uint64, born des.Time, hops int) {
	aud, ok := m.audience[uid]
	if !ok {
		return // not this meter's packet (or already released)
	}
	i, owed := slices.BinarySearch(aud, member)
	if !owed {
		m.c.Stale++ // outside the audience, or already counted
		return
	}
	m.c.Delivered++
	m.delays.Add(float64(m.w.Sim.Now() - born))
	m.hops += hops
	if aud = slices.Delete(aud, i, i+1); len(aud) == 0 {
		delete(m.audience, uid) // fully accounted
	} else {
		m.audience[uid] = aud
	}
}

// expire releases audience entries whose TTL has passed. Sends happen
// at nondecreasing times, so the pending queue is scanned from the
// front only. The spent queue prefix is compacted once it dominates the
// backing array, keeping the queue itself bounded by the live window
// too.
func (m *Meter) expire(now des.Time) {
	for m.audHead < len(m.audQ) && m.audQ[m.audHead].expire <= now {
		delete(m.audience, m.audQ[m.audHead].uid)
		m.audHead++
	}
	if m.audHead > 64 && m.audHead*2 >= len(m.audQ) {
		n := copy(m.audQ, m.audQ[m.audHead:])
		m.audQ = m.audQ[:n]
		m.audHead = 0
	}
}

// Close detaches the meter from the stack and returns what it counted.
// Entries whose TTL has passed are released first, so after a full
// drain AudienceOpen is 0 unless the release bookkeeping has a leak.
func (m *Meter) Close() Counts {
	m.stk.Deliveries(nil)
	now := m.w.Sim.Now()
	m.expire(now)
	c := m.c
	c.AudienceOpen = len(m.audience)
	c.Elapsed = now - m.start
	if n := m.w.Net.Len(); n > 0 && c.Elapsed > 0 {
		c.CtrlPerNodeS = float64(m.w.Net.Stats().ControlBytes-m.ctrl0) / float64(n) / float64(c.Elapsed)
	}
	c.Jain = stats.JainIndex(m.w.Net.ForwardLoads())
	c.MeanDelay = m.delays.Mean()
	c.P50Delay = m.delays.Percentile(50)
	c.P95Delay = m.delays.Percentile(95)
	if c.Delivered > 0 {
		c.MeanHops = float64(m.hops) / float64(c.Delivered)
	}
	c.DelaySamples = m.delays.N()
	c.DelayDigest = m.delays.Fingerprint()
	return c
}
