package baseline

import (
	"repro/internal/des"
	"repro/internal/network"
	"repro/internal/route"
)

// Packet kinds of the DSM-like scheme.
const (
	DSMPositionKind = "dsm-position"
	DSMDataKind     = "dsm-data"
)

// DSM approximates the Dynamic Source Multicast protocol [1]: "the
// location and transmission radius information has to be periodically
// broadcast from each node to all the other nodes in the network"
// (the scalability limit the paper quotes), after which a sender can
// "locally compute a snapshot of the global network topology", build
// the multicast tree, encode it in the packet header, and source-route.
//
// The position floods are real packets (full O(N^2)-transmission cost);
// the snapshot used by the sender is then read from the oracle, which
// matches the converged state those floods produce. Tree staleness under
// mobility — DSM's delivery weakness — is preserved by caching each
// group's tree for SnapshotTTL rather than recomputing per packet.
type DSM struct {
	net *network.Network
	ms  *membershipStore
	*deliveryLog

	// Period is the position-flood interval; SnapshotTTL is how long a
	// computed tree is reused (staleness window).
	Period      des.Duration
	SnapshotTTL des.Duration
	// PositionSize is the position report size in bytes.
	PositionSize int

	trees  route.SnapshotMemo[treeKey, map[network.NodeID]network.NodeID]
	ticker *des.Ticker
}

type treeKey struct {
	src network.NodeID
	g   Group
}

// NewDSM attaches the protocol to the network's mux.
func NewDSM(net *network.Network, mux *network.Mux) *DSM {
	d := &DSM{
		net:          net,
		ms:           newMembershipStore(),
		deliveryLog:  newDeliveryLog(net),
		Period:       2,
		SnapshotTTL:  2,
		PositionSize: 20,
	}
	mux.Handle(DSMPositionKind, rebroadcastFlood)
	mux.Handle(DSMDataKind, d.onData)
	return d
}

// Name implements Protocol.
func (d *DSM) Name() string { return "dsm" }

// Join implements Protocol.
func (d *DSM) Join(id network.NodeID, g Group) { d.ms.join(id, g) }

// Leave implements Protocol.
func (d *DSM) Leave(id network.NodeID, g Group) { d.ms.leave(id, g) }

// Start launches the periodic position floods.
func (d *DSM) Start() {
	d.ticker = d.net.Sim().Every(d.Period, d.Period, d.PositionRound)
}

// Stop implements Protocol.
func (d *DSM) Stop() {
	if d.ticker != nil {
		d.ticker.Stop()
	}
}

// PositionRound floods every live node's position report network-wide —
// DSM's control plane and its scalability bottleneck.
func (d *DSM) PositionRound() {
	for _, n := range d.net.Nodes() {
		if !n.Up() {
			continue
		}
		pkt := &network.Packet{
			Kind: DSMPositionKind, Src: n.ID, Dst: network.NoNode,
			Size: d.PositionSize, Control: true, Born: d.net.Sim().Now(), UID: d.net.NextUID(),
			Payload: new(flight).flood(d.net, n.ID),
		}
		d.net.Broadcast(n.ID, pkt)
	}
}

// dsmHeader carries the source-encoded tree.
type dsmHeader struct {
	fl          *flight
	Tree        map[network.NodeID]network.NodeID
	PayloadSize int
}

// Send implements Protocol: compute (or reuse) the snapshot tree, encode
// it, and forward along it.
func (d *DSM) Send(src network.NodeID, g Group, payloadSize int) uint64 {
	n := d.net.Node(src)
	if n == nil || !n.Up() {
		return 0
	}
	now := d.net.Sim().Now()
	// The snapshot memo reproduces DSM's staleness window: the tree is
	// reused for SnapshotTTL regardless of mobility, which is the
	// delivery weakness the comparison measures.
	tree := d.trees.Get(now, d.SnapshotTTL, treeKey{src: src, g: g}, func() map[network.NodeID]network.NodeID {
		return prunedTree(unitDiscBFS(d.net, src), src, d.ms.members(d.net, g))
	})
	uid := d.net.NextUID()
	hdr := &dsmHeader{fl: d.open(), Tree: tree, PayloadSize: payloadSize}
	if d.ms.isMember(src, g) {
		d.record(hdr.fl, src, uid, now, 0)
	}
	d.forward(src, src, g, uid, now, hdr)
	return uid
}

// forward sends one copy to each tree child of u. origin is the
// original source, preserved in Src so forwarding-load accounting sees
// relayed packets as relayed.
func (d *DSM) forward(u, origin network.NodeID, g Group, uid uint64, born des.Time, hdr *dsmHeader) {
	for _, child := range childrenOf(hdr.Tree, u) {
		pkt := &network.Packet{
			Kind: DSMDataKind, Src: origin, Dst: child, Group: int(g),
			Size: hdr.PayloadSize + 8 + 8*len(hdr.Tree), // encoded tree in header
			Born: born, UID: uid, Payload: hdr,
		}
		d.net.Unicast(u, child, pkt)
	}
}

func (d *DSM) onData(n *network.Node, _ network.NodeID, pkt *network.Packet) {
	hdr, ok := pkt.Payload.(*dsmHeader)
	if !ok {
		return
	}
	if d.ms.isMember(n.ID, Group(pkt.Group)) {
		d.record(hdr.fl, n.ID, pkt.UID, pkt.Born, pkt.Hops)
	}
	d.forward(n.ID, pkt.Src, Group(pkt.Group), pkt.UID, pkt.Born, hdr)
}
