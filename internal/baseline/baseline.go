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
// membership, the delivery observer, the Stats counters and the
// mechanics the schemes share — the send prologue (begin), the periodic
// control rounds that Stop cancels (every), control-flood origination
// and relay (originateFlood, rebroadcastFlood), and the source-routed
// tree leg DSM and CBT push data down (treeLeg, onLeg) — and
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
// delivery observer, the Stats counters and the control-round tickers.
// With Name and Send from the scheme, it makes the scheme a
// protocol.Stack; schemes with a control plane override Start.
type arm struct {
	net       *network.Network
	joined    map[network.NodeID]map[protocol.Group]bool
	onDeliver protocol.DeliverFunc
	stx       protocol.Stats
	tickers   []*des.Ticker
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

// Stop implements protocol.Stack: it cancels every control round.
func (a *arm) Stop() {
	for _, t := range a.tickers {
		t.Stop()
	}
	a.tickers = nil
}

// every runs round each period, first one period from now, until Stop.
func (a *arm) every(period des.Duration, round func()) {
	a.tickers = append(a.tickers, a.net.Sim().Every(period, period, round))
}

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

// begin is the prologue of every Send: a send from a live src draws its
// uid and opens its record, and a src that is a member of g is
// delivered to at once. It returns uid 0 when src is down.
func (a *arm) begin(src network.NodeID, g protocol.Group) (uint64, *flight) {
	n := a.net.Node(src)
	if n == nil || !n.Up() {
		return 0, nil
	}
	uid := a.net.NextUID()
	fl := &flight{delivered: newNodeSet(a.net)}
	if a.isMember(src, g) {
		a.record(fl, src, uid, a.net.Sim().Now(), 0)
	}
	return uid, fl
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

// originateFlood puts one control flood of kind, size bytes, on the air
// from src.
func (a *arm) originateFlood(src network.NodeID, kind string, size int) {
	a.net.Broadcast(src, &network.Packet{
		Kind: kind, Src: src, Dst: network.NoNode,
		Size: size, Control: true, Born: a.net.Sim().Now(), UID: a.net.NextUID(),
		Payload: new(flight).flood(a.net, src),
	})
}

// rebroadcastFlood is the whole handler of a control flood kind: the
// contents feed the snapshot oracle, so there is nothing to store. A
// relay re-broadcasts the packet it received instead of a copy: nothing
// reads a control flood's per-copy fields (its payload is the shared
// flight), so one packet serves the whole flood and only its Hops,
// which then counts the flood's relays so far, is not a path length.
func rebroadcastFlood(n *network.Node, _ network.NodeID, pkt *network.Packet) {
	if _, first := relayFlood(n, pkt); first {
		n.Net().Broadcast(n.ID, pkt)
	}
}

// snapshotTree is the snapshot-topology tree DSM computes at each sender
// and the CBT core builds as its shared tree: the BFS tree of the current
// unit-disc graph from root, over live nodes, pruned to the subtree
// spanning root and dests (child -> parent, root maps to itself).
func snapshotTree(net *network.Network, root network.NodeID, dests []network.NodeID) map[network.NodeID]network.NodeID {
	return graph.Prune(graph.BFSTree(root, net.NeighborsAppend), root, dests)
}

// treeLeg is the header of a source-routed tree leg — DSM's sender
// tree, CBT's core tree — shared by pointer by every copy of one send.
// size, the bytes of each hop's copy, is fixed when the header is made.
type treeLeg struct {
	fl   *flight
	tree map[network.NodeID]network.NodeID
	size int
}

// onLeg is the receive side of a tree leg, and its start at the tree's
// root: a member is delivered to, then one copy goes to each tree child
// of n. The copies keep pkt's kind, its hop count and its original
// source in Src, so a member reads the path length its copy travelled
// and forwarding-load accounting sees relayed packets as relayed.
func (a *arm) onLeg(n *network.Node, _ network.NodeID, pkt *network.Packet) {
	leg, ok := pkt.Payload.(*treeLeg)
	if !ok || leg.tree == nil {
		return
	}
	if a.isMember(n.ID, protocol.Group(pkt.Group)) {
		a.record(leg.fl, n.ID, pkt.UID, pkt.Born, pkt.Hops)
	}
	// Children in ID order: transmission order must not depend on map
	// iteration (each send may draw from the sender's loss stream).
	for _, child := range network.Children(leg.tree, n.ID, nil) {
		a.net.Unicast(n.ID, child, &network.Packet{
			Kind: pkt.Kind, Src: pkt.Src, Dst: child, Group: pkt.Group,
			Size: leg.size, Hops: pkt.Hops, Born: pkt.Born, UID: pkt.UID, Payload: leg,
		})
	}
}
