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
	"repro/internal/network"
)

// Group identifies a multicast group (same value space as
// membership.Group).
type Group int

// DeliverFunc observes one member delivery.
type DeliverFunc func(member network.NodeID, uid uint64, born des.Time, hops int)

// Protocol is the common surface of all baseline multicast schemes.
type Protocol interface {
	// Name identifies the scheme in experiment output.
	Name() string
	// Join and Leave maintain group membership.
	Join(id network.NodeID, g Group)
	Leave(id network.NodeID, g Group)
	// Send multicasts a payload from src; it returns the packet UID or 0.
	Send(src network.NodeID, g Group, payloadSize int) uint64
	// OnDeliver registers the delivery observer.
	OnDeliver(f DeliverFunc)
	// Start and Stop control periodic control planes (no-ops for
	// stateless schemes).
	Start()
	Stop()
}

// membershipStore is the shared join/leave bookkeeping.
type membershipStore struct {
	joined map[network.NodeID]map[Group]bool
}

func newMembershipStore() *membershipStore {
	return &membershipStore{joined: make(map[network.NodeID]map[Group]bool)}
}

func (m *membershipStore) join(id network.NodeID, g Group) {
	if m.joined[id] == nil {
		m.joined[id] = make(map[Group]bool)
	}
	m.joined[id][g] = true
}

func (m *membershipStore) leave(id network.NodeID, g Group) {
	delete(m.joined[id], g)
}

func (m *membershipStore) isMember(id network.NodeID, g Group) bool {
	return m.joined[id][g]
}

// members returns the live members of g in ID order.
func (m *membershipStore) members(net *network.Network, g Group) []network.NodeID {
	var out []network.NodeID
	for _, n := range net.Nodes() {
		if n.Up() && m.joined[n.ID][g] {
			out = append(out, n.ID)
		}
	}
	return out
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

// deliveryLog is the delivery side every scheme embeds: it dispatches
// member deliveries, deduplicated through the flight the copies carry.
type deliveryLog struct {
	net       *network.Network
	onDeliver DeliverFunc
}

func newDeliveryLog(net *network.Network) *deliveryLog {
	return &deliveryLog{net: net}
}

// OnDeliver implements Protocol.
func (d *deliveryLog) OnDeliver(f DeliverFunc) { d.onDeliver = f }

// open starts the record of a data send.
func (d *deliveryLog) open() *flight {
	return &flight{delivered: newNodeSet(d.net)}
}

func (d *deliveryLog) record(fl *flight, member network.NodeID, uid uint64, born des.Time, hops int) {
	if !fl.delivered.add(member) {
		return
	}
	if d.onDeliver != nil {
		d.onDeliver(member, uid, born, hops)
	}
}

// unitDiscBFS computes a BFS tree over the current unit-disc graph from
// root, as parent pointers, visiting only live nodes. It is the
// snapshot-topology computation DSM performs at each sender and the CBT
// core uses for its shared tree.
func unitDiscBFS(net *network.Network, root network.NodeID) map[network.NodeID]network.NodeID {
	parent := map[network.NodeID]network.NodeID{root: root}
	frontier := []network.NodeID{root}
	var nbrs []network.NodeID
	for len(frontier) > 0 {
		var next []network.NodeID
		for _, u := range frontier {
			nbrs = net.NeighborsAppend(u, nbrs[:0])
			for _, v := range nbrs {
				if _, ok := parent[v]; ok {
					continue
				}
				parent[v] = u
				next = append(next, v)
			}
		}
		frontier = next
	}
	return parent
}

// prunedTree reduces a BFS parent map to the subtree spanning root and
// the given destinations: child -> parent, root maps to itself.
func prunedTree(parent map[network.NodeID]network.NodeID, root network.NodeID, dests []network.NodeID) map[network.NodeID]network.NodeID {
	tree := map[network.NodeID]network.NodeID{root: root}
	for _, d := range dests {
		if _, ok := parent[d]; !ok {
			continue // unreachable in the snapshot
		}
		for cur := d; ; {
			if _, ok := tree[cur]; ok {
				break
			}
			p := parent[cur]
			tree[cur] = p
			cur = p
		}
	}
	return tree
}

// childrenOf inverts a parent map at one node. Children come back in ID
// order: callers transmit to them, and transmission order must not
// depend on map iteration (each send may draw from the sender's loss
// stream).
func childrenOf(tree map[network.NodeID]network.NodeID, u network.NodeID) []network.NodeID {
	return network.Children(tree, u, nil)
}

// sortedMembers returns the IDs with at least one joined group, in ID
// order — the deterministic iteration base for periodic per-member
// control rounds.
func (m *membershipStore) sortedMembers() []network.NodeID {
	out := make([]network.NodeID, 0, len(m.joined))
	for id, groups := range m.joined {
		if len(groups) > 0 {
			out = append(out, id)
		}
	}
	return network.SortedIDs(out)
}
