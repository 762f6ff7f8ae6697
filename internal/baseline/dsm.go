package baseline

import (
	"repro/internal/des"
	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/route"
)

// Packet kinds of the DSM-like scheme.
const (
	DSMPositionKind = "dsm-position"
	DSMDataKind     = "dsm-data"
)

// The DSM-like scheme's timing and sizes: a position flood every
// dsmPeriod, a computed tree reused for dsmSnapshotTTL (the staleness
// window), and dsmPositionSize bytes per position report.
const (
	dsmPeriod       des.Duration = 2
	dsmSnapshotTTL  des.Duration = 2
	dsmPositionSize              = 20
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
// group's tree for dsmSnapshotTTL rather than recomputing per packet.
type DSM struct {
	arm
	trees route.SnapshotMemo[treeKey, map[network.NodeID]network.NodeID]
}

type treeKey struct {
	src network.NodeID
	g   protocol.Group
}

// NewDSM attaches the protocol to the network's mux.
func NewDSM(net *network.Network, mux *network.Mux) *DSM {
	d := &DSM{arm: newArm(net)}
	mux.Handle(DSMPositionKind, rebroadcastFlood)
	mux.Handle(DSMDataKind, d.onLeg)
	return d
}

// Name implements protocol.Stack.
func (d *DSM) Name() string { return "dsm" }

// Start launches the periodic position floods.
func (d *DSM) Start() { d.every(dsmPeriod, d.positionRound) }

// positionRound floods every live node's position report network-wide —
// DSM's control plane and its scalability bottleneck.
func (d *DSM) positionRound() {
	for _, n := range d.net.Nodes() {
		if n.Up() {
			d.originateFlood(n.ID, DSMPositionKind, dsmPositionSize)
		}
	}
}

// Send implements protocol.Stack: compute (or reuse) the snapshot tree,
// encode it in the header, and push the packet down it from src.
func (d *DSM) Send(src network.NodeID, g protocol.Group, payloadSize int) uint64 {
	uid, fl := d.begin(src, g)
	if uid == 0 {
		return 0
	}
	now := d.net.Sim().Now()
	// The snapshot memo reproduces DSM's staleness window: the tree is
	// reused for dsmSnapshotTTL regardless of mobility, which is the
	// delivery weakness the comparison measures.
	tree, _ := d.trees.Get(now, dsmSnapshotTTL, treeKey{src: src, g: g}, func() map[network.NodeID]network.NodeID {
		return snapshotTree(d.net, src, d.members(g))
	})
	leg := &treeLeg{fl: fl, tree: tree, size: payloadSize + 8 + 8*len(tree)} // encoded tree in header
	d.onLeg(d.net.Node(src), src, &network.Packet{
		Kind: DSMDataKind, Src: src, Group: int(g), Born: now, UID: uid, Payload: leg,
	})
	return d.sent(uid)
}
