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
	uid, fl := f.begin(src, g)
	if uid == 0 {
		return 0
	}
	f.net.Broadcast(src, &network.Packet{
		Kind: FloodKind, Src: src, Dst: network.NoNode, Group: int(g),
		Size: payloadSize + 8, Born: f.net.Sim().Now(), UID: uid, Payload: fl.flood(f.net, src),
	})
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
