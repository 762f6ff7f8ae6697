package baseline

import (
	"repro/internal/network"
	"repro/internal/protocol"
)

// FloodKind is the packet kind of flooded data.
const FloodKind = "flood-data"

// Flooding is blind network-wide broadcast with duplicate suppression:
// every node rebroadcasts each packet once. Delivery is maximal (every
// connected member receives) at maximal data overhead (every node
// transmits every packet) — the reference point for both PDR and cost.
type Flooding struct {
	arm
}

// NewFlooding attaches the protocol to the network's mux.
func NewFlooding(net *network.Network, mux *network.Mux) *Flooding {
	f := &Flooding{arm: newArm(net)}
	mux.Handle(FloodKind, f.onPacket)
	return f
}

// Name implements protocol.Stack.
func (f *Flooding) Name() string { return "flooding" }

// Send implements protocol.Stack.
func (f *Flooding) Send(src network.NodeID, g protocol.Group, payloadSize int) uint64 {
	n := f.net.Node(src)
	if n == nil || !n.Up() {
		return 0
	}
	uid := f.net.NextUID()
	fl := f.open().flood(f.net, src)
	pkt := &network.Packet{
		Kind: FloodKind, Src: src, Dst: network.NoNode, Group: int(g),
		Size: payloadSize + 8, Born: f.net.Sim().Now(), UID: uid, Payload: fl,
	}
	if f.isMember(src, g) {
		f.record(fl, src, uid, pkt.Born, 0)
	}
	f.net.Broadcast(src, pkt)
	return f.sent(uid)
}

func (f *Flooding) onPacket(n *network.Node, _ network.NodeID, pkt *network.Packet) {
	fl, first := relayFlood(n, pkt)
	if !first {
		return
	}
	if f.isMember(n.ID, protocol.Group(pkt.Group)) {
		f.record(fl, n.ID, pkt.UID, pkt.Born, pkt.Hops)
	}
	f.net.Broadcast(n.ID, pkt.Clone())
}
