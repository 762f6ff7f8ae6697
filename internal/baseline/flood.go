package baseline

import (
	"repro/internal/network"
)

// FloodKind is the packet kind of flooded data.
const FloodKind = "flood-data"

// Flooding is blind network-wide broadcast with duplicate suppression:
// every node rebroadcasts each packet once. Delivery is maximal (every
// connected member receives) at maximal data overhead (every node
// transmits every packet) — the reference point for both PDR and cost.
type Flooding struct {
	net *network.Network
	ms  *membershipStore
	*deliveryLog
}

// NewFlooding attaches the protocol to the network's mux.
func NewFlooding(net *network.Network, mux *network.Mux) *Flooding {
	f := &Flooding{net: net, ms: newMembershipStore(), deliveryLog: newDeliveryLog(net)}
	mux.Handle(FloodKind, f.onPacket)
	return f
}

// Name implements Protocol.
func (f *Flooding) Name() string { return "flooding" }

// Join implements Protocol.
func (f *Flooding) Join(id network.NodeID, g Group) { f.ms.join(id, g) }

// Leave implements Protocol.
func (f *Flooding) Leave(id network.NodeID, g Group) { f.ms.leave(id, g) }

// Start implements Protocol (no control plane).
func (f *Flooding) Start() {}

// Stop implements Protocol.
func (f *Flooding) Stop() {}

// Send implements Protocol.
func (f *Flooding) Send(src network.NodeID, g Group, payloadSize int) uint64 {
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
	if f.ms.isMember(src, g) {
		f.record(fl, src, uid, pkt.Born, 0)
	}
	f.net.Broadcast(src, pkt)
	return uid
}

func (f *Flooding) onPacket(n *network.Node, _ network.NodeID, pkt *network.Packet) {
	fl, first := relayFlood(n, pkt)
	if !first {
		return
	}
	if f.ms.isMember(n.ID, Group(pkt.Group)) {
		f.record(fl, n.ID, pkt.UID, pkt.Born, pkt.Hops)
	}
	f.net.Broadcast(n.ID, pkt.Clone())
}
