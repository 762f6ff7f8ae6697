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
	core  network.NodeID
	trees route.SnapshotMemo[protocol.Group, map[network.NodeID]network.NodeID]
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
	mux.Handle(CBTDataKind, c.onLeg)
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
	c.every(cbtPeriod, c.joinRound)
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
	if c.core == network.NoNode {
		return 0
	}
	uid, fl := c.begin(src, g)
	if uid == 0 {
		return 0
	}
	inner := &network.Packet{
		Kind: CBTDataKind, Src: src, Dst: c.core, Group: int(g),
		Size: payloadSize + 8, Born: c.net.Sim().Now(), UID: uid,
		Payload: &treeLeg{fl: fl, size: payloadSize + 8},
	}
	if src == c.core {
		c.atCore(c.net.Node(src), inner)
	} else if !c.geo.Send(src, c.corePos(), c.core, inner) {
		return 0
	}
	return c.sent(uid)
}

// atCore runs when a data packet reaches the core: compute or reuse the
// shared tree and push the packet down it.
func (c *CBT) atCore(n *network.Node, inner *network.Packet) {
	leg, ok := inner.Payload.(*treeLeg)
	if !ok {
		return
	}
	g := protocol.Group(inner.Group)
	// The snapshot memo reproduces CBT's staleness window on the shared
	// core tree.
	leg.tree, _ = c.trees.Get(c.net.Sim().Now(), cbtSnapshotTTL, g, func() map[network.NodeID]network.NodeID {
		return snapshotTree(c.net, c.core, c.members(g))
	})
	c.onLeg(n, n.ID, inner)
}
