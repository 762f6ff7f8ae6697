// Package baseline reimplements the multicast schemes the paper compares
// its design against in §2.2, at the fidelity the comparison experiments
// need (delivery behaviour, control-overhead scaling, forwarding-load
// shape):
//
//   - Flooding — network-wide broadcast with duplicate suppression; the
//     zero-state baseline every MANET paper includes.
//   - DSM-like (Basagni et al. [1]) — every node periodically floods its
//     position; a sender computes a snapshot multicast tree locally and
//     source-routes along it.
//   - PBM-like (Mauve et al. [17]) — greedy position-based multicast:
//     the sender knows member positions, forwarding nodes split the
//     destination list among neighbors making progress.
//   - SPBM-like (Transier et al. [28]) — quad-tree hierarchical
//     membership aggregation with geographic forwarding toward squares
//     containing members.
//   - CBT-like — a rendezvous (core-based) shortest-path tree, included
//     to quantify the paper's claim that tree-based backbones develop
//     bottleneck hot spots that the hypercube's symmetry avoids.
//
// Every scheme is a protocol.Stack: the embedded arm supplies
// membership, the delivery observer and the Stats counters, and
// scenario.World.Protocol builds the schemes by name.
//
// Substitution note (documented in DESIGN.md): the periodic control
// planes transmit real packets through the simulator, so overhead and
// contention are charged faithfully; the *contents* of those messages
// (positions, membership) are then read from the simulation oracle when
// computing trees, rather than re-parsed from per-node caches. The
// protocols' costs and failure modes (stale snapshots under mobility,
// sender-side membership knowledge, hot-spot cores) are preserved, which
// is what the paper's comparison is about.
package baseline

import (
	"repro/internal/des"
	"repro/internal/graph"
	"repro/internal/network"
	"repro/internal/protocol"
)

// arm is the state every scheme embeds: the group membership, the
// delivery observer and the Stats counters. With Name and Send from the
// scheme, it makes the scheme a protocol.Stack; schemes with a control
// plane override Start and Stop.
type arm struct {
	net       *network.Network
	joined    map[network.NodeID]map[protocol.Group]bool
	onDeliver protocol.DeliverFunc
	stx       protocol.Stats
}

func newArm(net *network.Network) arm {
	return arm{net: net, joined: make(map[network.NodeID]map[protocol.Group]bool)}
}

// Join implements protocol.Stack.
func (a *arm) Join(id network.NodeID, g protocol.Group) {
	if a.joined[id] == nil {
		a.joined[id] = make(map[protocol.Group]bool)
	}
	a.joined[id][g] = true
}

// Leave implements protocol.Stack.
func (a *arm) Leave(id network.NodeID, g protocol.Group) {
	delete(a.joined[id], g)
}

// Start implements protocol.Stack (no control plane).
func (a *arm) Start() {}

// Stop implements protocol.Stack.
func (a *arm) Stop() {}

// Deliveries implements protocol.Stack.
func (a *arm) Deliveries(f protocol.DeliverFunc) { a.onDeliver = f }

// Stats implements protocol.Stack.
func (a *arm) Stats() protocol.Stats { return a.stx }

// sent counts a started send (uid != 0) and returns its uid.
func (a *arm) sent(uid uint64) uint64 {
	if uid != 0 {
		a.stx.Sent++
	}
	return uid
}

func (a *arm) isMember(id network.NodeID, g protocol.Group) bool {
	return a.joined[id][g]
}

// members returns the live members of g in ID order.
func (a *arm) members(g protocol.Group) []network.NodeID {
	var out []network.NodeID
	for _, n := range a.net.Nodes() {
		if n.Up() && a.joined[n.ID][g] {
			out = append(out, n.ID)
		}
	}
	return out
}

// sortedMembers returns the IDs with at least one joined group, in ID
// order — the deterministic iteration base for periodic per-member
// control rounds.
func (a *arm) sortedMembers() []network.NodeID {
	out := make([]network.NodeID, 0, len(a.joined))
	for id, groups := range a.joined {
		if len(groups) > 0 {
			out = append(out, id)
		}
	}
	return network.SortedIDs(out)
}

// open starts the record of a data send.
func (a *arm) open() *flight {
	return &flight{delivered: newNodeSet(a.net)}
}

// record delivers to member once per send: the first copy to reach it
// counts as Delivered and goes to the observer, later copies are
// dropped through the flight the copies carry.
func (a *arm) record(fl *flight, member network.NodeID, uid uint64, born des.Time, hops int) {
	if !fl.delivered.add(member) {
		return
	}
	a.stx.Delivered++
	if a.onDeliver != nil {
		a.onDeliver(member, uid, born, hops)
	}
}

// nodeSet is a dense set of node IDs.
type nodeSet []uint64

func newNodeSet(net *network.Network) nodeSet {
	return make(nodeSet, (net.Len()+63)/64)
}

// add inserts id and reports whether it was absent. Sets are sized when
// a packet originates; an ID beyond that (a node added while copies are
// on the air) grows the set.
func (s *nodeSet) add(id network.NodeID) bool {
	w, bit := int(id)>>6, uint64(1)<<uint(id&63)
	for w >= len(*s) {
		*s = append(*s, 0)
	}
	if (*s)[w]&bit != 0 {
		return false
	}
	(*s)[w] |= bit
	return true
}

// flight is the record of one originated packet — a data Send or one
// control flood — carried by pointer in the Payload of every copy, so
// Clone and per-hop headers share it: what has already happened to the
// packet. The copies are the only strong holders, so the record is
// collected with its last copy in flight and no table ever hears of it.
type flight struct {
	relayed   nodeSet // flood kinds: nodes that have broadcast their copy
	delivered nodeSet // data kinds: members delivered to
}

// flood makes fl the record of a flood originating at src, which counts
// as having broadcast.
func (fl *flight) flood(net *network.Network, src network.NodeID) *flight {
	fl.relayed = newNodeSet(net)
	fl.relayed.add(src)
	return fl
}

// relayFlood is the receive side of every flood: it reports whether this
// is the first copy to reach n, which the caller then rebroadcasts.
func relayFlood(n *network.Node, pkt *network.Packet) (*flight, bool) {
	fl, ok := pkt.Payload.(*flight)
	return fl, ok && fl.relayed.add(n.ID)
}

// rebroadcastFlood is the whole handler of a control flood kind: the
// contents feed the snapshot oracle, so there is nothing to store.
func rebroadcastFlood(n *network.Node, _ network.NodeID, pkt *network.Packet) {
	if _, first := relayFlood(n, pkt); first {
		n.Net().Broadcast(n.ID, pkt.Clone())
	}
}

// snapshotTree is the snapshot-topology tree DSM computes at each sender
// and the CBT core builds as its shared tree: the BFS tree of the current
// unit-disc graph from root, over live nodes, pruned to the subtree
// spanning root and dests (child -> parent, root maps to itself).
func snapshotTree(net *network.Network, root network.NodeID, dests []network.NodeID) map[network.NodeID]network.NodeID {
	return graph.Prune(graph.BFSTree(root, net.NeighborsAppend), root, dests)
}

// childrenOf inverts a parent map at one node. Children come back in ID
// order: callers transmit to them, and transmission order must not
// depend on map iteration (each send may draw from the sender's loss
// stream).
func childrenOf(tree map[network.NodeID]network.NodeID, u network.NodeID) []network.NodeID {
	return network.Children(tree, u, nil)
}
