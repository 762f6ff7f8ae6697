package baseline

import (
	"repro/internal/des"
	"repro/internal/geom"
	"repro/internal/georoute"
	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/route"
)

// Packet kinds of the CBT-like scheme.
const (
	CBTJoinKind = "cbt-join"
	CBTDataKind = "cbt-data"
)

// The CBT-like scheme's join-refresh interval, core-tree staleness
// window and join size in bytes.
const (
	cbtPeriod      des.Duration = 2
	cbtSnapshotTTL des.Duration = 2
	cbtJoinSize                 = 12
)

// CBT is a core-based (rendezvous) shared tree: one core node anchors a
// shortest-path tree; senders unicast to the core, which forwards down
// the member tree. It exists to quantify the paper's load-balancing
// argument — "no problem of bottlenecks exists, which is likely to occur
// in tree-based architectures" — by providing exactly such a tree-based
// architecture: all sessions' traffic converges on the core.
type CBT struct {
	arm
	geo *georoute.Router
	// core is the rendezvous node, picked by chooseCore.
	core   network.NodeID
	trees  route.SnapshotMemo[protocol.Group, map[network.NodeID]network.NodeID]
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
	c := &CBT{arm: newArm(net), core: network.NoNode}
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

// Name implements protocol.Stack.
func (c *CBT) Name() string { return "cbt" }

// chooseCore picks the live node nearest the arena center, the standard
// static core placement.
func (c *CBT) chooseCore() network.NodeID {
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
	c.core = best
	return best
}

// Start launches periodic member join refreshes toward the core.
func (c *CBT) Start() {
	if c.core == network.NoNode {
		c.chooseCore()
	}
	c.ticker = c.net.Sim().Every(cbtPeriod, cbtPeriod, c.joinRound)
}

// Stop implements protocol.Stack.
func (c *CBT) Stop() {
	if c.ticker != nil {
		c.ticker.Stop()
	}
}

// joinRound sends a join refresh from every member to the core.
func (c *CBT) joinRound() {
	if c.core == network.NoNode {
		return
	}
	corePos := c.corePos()
	for _, id := range c.sortedMembers() {
		if id == c.core {
			continue
		}
		n := c.net.Node(id)
		if n == nil || !n.Up() {
			continue
		}
		inner := &network.Packet{
			Kind: CBTJoinKind, Src: id, Dst: c.core,
			Size: cbtJoinSize, Control: true, Born: c.net.Sim().Now(),
			UID: c.net.NextUID(),
		}
		c.geo.Send(id, corePos, c.core, inner)
	}
}

func (c *CBT) corePos() geom.Point {
	if n := c.net.Node(c.core); n != nil {
		return n.TruePos()
	}
	return c.net.Arena().Center()
}

// Send implements protocol.Stack: unicast to the core, then down the
// shared tree.
func (c *CBT) Send(src network.NodeID, g protocol.Group, payloadSize int) uint64 {
	n := c.net.Node(src)
	if n == nil || !n.Up() || c.core == network.NoNode {
		return 0
	}
	now := c.net.Sim().Now()
	uid := c.net.NextUID()
	hdr := &cbtHeader{fl: c.open(), PayloadSize: payloadSize}
	if c.isMember(src, g) {
		c.record(hdr.fl, src, uid, now, 0)
	}
	inner := &network.Packet{
		Kind: CBTDataKind, Src: src, Dst: c.core, Group: int(g),
		Size: payloadSize + 8, Born: now, UID: uid, Payload: hdr,
	}
	if src == c.core {
		c.atCore(n, inner)
		return c.sent(uid)
	}
	if !c.geo.Send(src, c.corePos(), c.core, inner) {
		return 0
	}
	return c.sent(uid)
}

// atCore runs when a data packet reaches the core: compute or reuse the
// shared tree and forward downstream.
func (c *CBT) atCore(n *network.Node, inner *network.Packet) {
	hdr, ok := inner.Payload.(*cbtHeader)
	if !ok {
		return
	}
	g := protocol.Group(inner.Group)
	now := c.net.Sim().Now()
	// The snapshot memo reproduces CBT's staleness window on the shared
	// core tree.
	tree, _ := c.trees.Get(now, cbtSnapshotTTL, g, func() map[network.NodeID]network.NodeID {
		return snapshotTree(c.net, c.core, c.members(g))
	})
	hdr.Tree = tree
	if c.isMember(c.core, g) {
		c.record(hdr.fl, c.core, inner.UID, inner.Born, inner.Hops)
	}
	c.forward(c.core, inner.Src, g, inner.UID, inner.Born, hdr)
}

// forward keeps the original source in Src so forwarding-load
// accounting sees relayed packets as relayed.
func (c *CBT) forward(u, origin network.NodeID, g protocol.Group, uid uint64, born des.Time, hdr *cbtHeader) {
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
	if c.isMember(n.ID, protocol.Group(pkt.Group)) {
		c.record(hdr.fl, n.ID, pkt.UID, pkt.Born, pkt.Hops)
	}
	c.forward(n.ID, pkt.Src, protocol.Group(pkt.Group), pkt.UID, pkt.Born, hdr)
}
