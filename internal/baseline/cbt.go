package baseline

import (
	"repro/internal/des"
	"repro/internal/geom"
	"repro/internal/georoute"
	"repro/internal/network"
	"repro/internal/route"
)

// Packet kinds of the CBT-like scheme.
const (
	CBTJoinKind = "cbt-join"
	CBTDataKind = "cbt-data"
)

// CBT is a core-based (rendezvous) shared tree: one core node anchors a
// shortest-path tree; senders unicast to the core, which forwards down
// the member tree. It exists to quantify the paper's load-balancing
// argument — "no problem of bottlenecks exists, which is likely to occur
// in tree-based architectures" — by providing exactly such a tree-based
// architecture: all sessions' traffic converges on the core.
type CBT struct {
	net *network.Network
	geo *georoute.Router
	ms  *membershipStore
	*deliveryLog

	// Core is the rendezvous node; pick with ChooseCore or set directly.
	Core network.NodeID
	// Period is the member join-refresh interval; SnapshotTTL bounds
	// tree staleness.
	Period      des.Duration
	SnapshotTTL des.Duration
	JoinSize    int

	trees  route.SnapshotMemo[Group, map[network.NodeID]network.NodeID]
	ticker *des.Ticker
}

// cbtHeader carries the core tree for downstream forwarding.
type cbtHeader struct {
	fl          *flight
	Tree        map[network.NodeID]network.NodeID
	PayloadSize int
}

// NewCBT attaches the protocol to the network's mux.
func NewCBT(net *network.Network, mux *network.Mux) *CBT {
	c := &CBT{
		net:         net,
		ms:          newMembershipStore(),
		deliveryLog: newDeliveryLog(net),
		Core:        network.NoNode,
		Period:      2,
		SnapshotTTL: 2,
		JoinSize:    12,
	}
	c.geo = georoute.Attach(net, mux)
	c.geo.Deliver(CBTDataKind, func(n *network.Node, inner *network.Packet) {
		c.atCore(n, inner)
	})
	c.geo.Deliver(CBTJoinKind, func(*network.Node, *network.Packet) {
		// Join refreshes feed the oracle membership view.
	})
	mux.Handle(CBTDataKind, c.onData)
	return c
}

// Name implements Protocol.
func (c *CBT) Name() string { return "cbt" }

// Join implements Protocol.
func (c *CBT) Join(id network.NodeID, g Group) { c.ms.join(id, g) }

// Leave implements Protocol.
func (c *CBT) Leave(id network.NodeID, g Group) { c.ms.leave(id, g) }

// ChooseCore picks the live node nearest the arena center, the standard
// static core placement.
func (c *CBT) ChooseCore() network.NodeID {
	center := c.net.Arena().Center()
	best := network.NoNode
	bestD := 0.0
	for _, n := range c.net.Nodes() {
		if !n.Up() {
			continue
		}
		d := n.TruePos().Dist(center)
		if best == network.NoNode || d < bestD {
			best, bestD = n.ID, d
		}
	}
	c.Core = best
	return best
}

// Start launches periodic member join refreshes toward the core.
func (c *CBT) Start() {
	if c.Core == network.NoNode {
		c.ChooseCore()
	}
	c.ticker = c.net.Sim().Every(c.Period, c.Period, c.JoinRound)
}

// Stop implements Protocol.
func (c *CBT) Stop() {
	if c.ticker != nil {
		c.ticker.Stop()
	}
}

// JoinRound sends a join refresh from every member to the core.
func (c *CBT) JoinRound() {
	if c.Core == network.NoNode {
		return
	}
	corePos := c.corePos()
	for _, id := range c.ms.sortedMembers() {
		if id == c.Core {
			continue
		}
		n := c.net.Node(id)
		if n == nil || !n.Up() {
			continue
		}
		inner := &network.Packet{
			Kind: CBTJoinKind, Src: id, Dst: c.Core,
			Size: c.JoinSize, Control: true, Born: c.net.Sim().Now(),
			UID: c.net.NextUID(),
		}
		c.geo.Send(id, corePos, c.Core, inner)
	}
}

func (c *CBT) corePos() geom.Point {
	if n := c.net.Node(c.Core); n != nil {
		return n.TruePos()
	}
	return c.net.Arena().Center()
}

// Send implements Protocol: unicast to the core, then down the shared
// tree.
func (c *CBT) Send(src network.NodeID, g Group, payloadSize int) uint64 {
	n := c.net.Node(src)
	if n == nil || !n.Up() || c.Core == network.NoNode {
		return 0
	}
	now := c.net.Sim().Now()
	uid := c.net.NextUID()
	hdr := &cbtHeader{fl: c.open(), PayloadSize: payloadSize}
	if c.ms.isMember(src, g) {
		c.record(hdr.fl, src, uid, now, 0)
	}
	inner := &network.Packet{
		Kind: CBTDataKind, Src: src, Dst: c.Core, Group: int(g),
		Size: payloadSize + 8, Born: now, UID: uid, Payload: hdr,
	}
	if src == c.Core {
		c.atCore(n, inner)
		return uid
	}
	if !c.geo.Send(src, c.corePos(), c.Core, inner) {
		return 0
	}
	return uid
}

// atCore runs when a data packet reaches the core: compute or reuse the
// shared tree and forward downstream.
func (c *CBT) atCore(n *network.Node, inner *network.Packet) {
	hdr, ok := inner.Payload.(*cbtHeader)
	if !ok {
		return
	}
	g := Group(inner.Group)
	now := c.net.Sim().Now()
	// The snapshot memo reproduces CBT's staleness window on the shared
	// core tree.
	tree := c.trees.Get(now, c.SnapshotTTL, g, func() map[network.NodeID]network.NodeID {
		return prunedTree(unitDiscBFS(c.net, c.Core), c.Core, c.ms.members(c.net, g))
	})
	hdr.Tree = tree
	if c.ms.isMember(c.Core, g) {
		c.record(hdr.fl, c.Core, inner.UID, inner.Born, inner.Hops)
	}
	c.forward(c.Core, inner.Src, g, inner.UID, inner.Born, hdr)
}

// forward keeps the original source in Src so forwarding-load
// accounting sees relayed packets as relayed.
func (c *CBT) forward(u, origin network.NodeID, g Group, uid uint64, born des.Time, hdr *cbtHeader) {
	for _, child := range childrenOf(hdr.Tree, u) {
		pkt := &network.Packet{
			Kind: CBTDataKind, Src: origin, Dst: child, Group: int(g),
			Size: hdr.PayloadSize + 8, Born: born, UID: uid, Payload: hdr,
		}
		c.net.Unicast(u, child, pkt)
	}
}

func (c *CBT) onData(n *network.Node, _ network.NodeID, pkt *network.Packet) {
	hdr, ok := pkt.Payload.(*cbtHeader)
	if !ok || hdr.Tree == nil {
		return
	}
	if c.ms.isMember(n.ID, Group(pkt.Group)) {
		c.record(hdr.fl, n.ID, pkt.UID, pkt.Born, pkt.Hops)
	}
	c.forward(n.ID, pkt.Src, Group(pkt.Group), pkt.UID, pkt.Born, hdr)
}
