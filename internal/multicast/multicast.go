// Package multicast implements the paper's Figure 6 algorithm: logical
// location-based multicast routing over the HVDB.
//
// The data path follows the paper step by step:
//
//  1. a source MN hands the message to its CH;
//  2. the CH computes (or reuses from cache) a mesh-tier multicast tree
//     over the hypercubes its MT-Summary attributes to the group and
//     encapsulates the tree in the packet header;
//  3. the packet travels between hypercubes by location-based unicast;
//  4. on first entry into a hypercube the entry CH re-encapsulates the
//     packet toward next-hop hypercubes and computes a hypercube-tier
//     tree from its HT view (cached as well);
//  5. within the hypercube the packet follows the tree along
//     1-logical-hop routes between CHs;
//  6. a CH whose MNT view shows local group members delivers by local
//     broadcast within its cluster.
//
// Header sizes grow with the encoded trees, so the traffic accounting
// reflects the encapsulation cost the paper's design accepts in exchange
// for statelessness at intermediate CHs.
package multicast

import (
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/logicalid"
	"repro/internal/membership"
	"repro/internal/meshtier"
	"repro/internal/network"
	"repro/internal/route"
	"repro/internal/trace"
	"repro/internal/vcgrid"
)

// Packet kinds of the multicast plane.
const (
	SourceKind = "mcast-src"   // MN -> its CH
	DataKind   = "mcast-data"  // CH -> CH (mesh and hypercube tiers)
	LocalKind  = "mcast-local" // CH -> cluster members (local broadcast)
)

// Config parameterizes the multicast plane.
type Config struct {
	// HeaderBase is the fixed header size in bytes; TreeEntry is the
	// per-edge cost of an encapsulated tree.
	HeaderBase, TreeEntry int
	// CacheTTL is how long computed trees stay valid (the paper caches
	// trees "for future use"; mobility invalidates them eventually).
	CacheTTL des.Duration
	// MinBandwidth and MaxDelay, when non-zero, gate intra-cube
	// forwarding on the QoS annotations of the local logical routes.
	MinBandwidth, MaxDelay float64
}

// DefaultConfig sizes headers like a compact binary encoding.
func DefaultConfig() Config {
	return Config{HeaderBase: 24, TreeEntry: 4, CacheTTL: 10}
}

// header is the encapsulated routing state carried by DataKind packets.
type header struct {
	Group membership.Group
	// MeshTree is parent pointers over hypercube IDs (step 2).
	MeshTree map[logicalid.HID]logicalid.HID
	// CubeHID and CubeTree are the hypercube-tier tree of the hypercube
	// currently being traversed (step 4), as parent pointers over CH
	// slots. The tree spans the cube's *logical link graph* — hypercube
	// label edges plus grid-adjacency edges, exactly the 1-logical-hop
	// routes of §4.1 — so it survives label-graph disconnection in
	// incomplete cubes. IntraCube marks packets already traveling
	// inside the cube.
	CubeHID   logicalid.HID
	CubeTree  map[logicalid.CHID]logicalid.CHID
	IntraCube bool
	// LogicalHops counts CH-to-CH logical forwards for metrics.
	LogicalHops int
	// PayloadSize is the application payload in bytes.
	PayloadSize int
}

func (h *header) clone() *header {
	c := *h
	return &c
}

// DeliverFunc observes one member delivery.
type DeliverFunc func(member network.NodeID, uid uint64, born des.Time, logicalHops int)

type cachedMeshTree struct {
	tree    map[logicalid.HID]logicalid.HID
	root    logicalid.HID
	expires des.Time
}

type cachedCubeTree struct {
	tree    map[logicalid.CHID]logicalid.CHID
	entry   logicalid.CHID
	expires des.Time
}

type cubeKey struct {
	hid   logicalid.HID
	slot  logicalid.CHID
	group membership.Group
}

// Service runs multicast over a backbone and its membership plane.
type Service struct {
	bb  *core.Backbone
	ms  *membership.Service
	cfg Config
	tr  trace.Tracer

	meshCache map[membership.Group]map[logicalid.HID]cachedMeshTree
	cubeCache map[cubeKey]cachedCubeTree

	seenCube  map[uint64]map[logicalid.HID]bool
	seenSlot  map[uint64]map[logicalid.CHID]bool
	seenLocal map[uint64]map[network.NodeID]bool

	onDeliver []DeliverFunc

	// childScratch is forwardWithinCube's reusable sorted-children
	// buffer (forwarding is never reentrant: receptions arrive as
	// separate simulator events).
	childScratch []logicalid.CHID

	// Counters for experiments.
	Sent          uint64
	Delivered     uint64
	TreeComputes  uint64
	TreeCacheHits uint64
}

// New wires multicast onto the backbone. The outer mux (the one bound
// to the network) is needed for local-broadcast delivery, which does not
// go through the logical transport.
func New(bb *core.Backbone, ms *membership.Service, mux *network.Mux, cfg Config) *Service {
	if cfg.HeaderBase <= 0 {
		cfg = DefaultConfig()
	}
	s := &Service{
		bb:        bb,
		ms:        ms,
		cfg:       cfg,
		tr:        trace.Nop,
		meshCache: make(map[membership.Group]map[logicalid.HID]cachedMeshTree),
		cubeCache: make(map[cubeKey]cachedCubeTree),
		seenCube:  make(map[uint64]map[logicalid.HID]bool),
		seenSlot:  make(map[uint64]map[logicalid.CHID]bool),
		seenLocal: make(map[uint64]map[network.NodeID]bool),
	}
	bb.HandleInner(SourceKind, s.onSource)
	bb.HandleInner(DataKind, s.onData)
	mux.Handle(LocalKind, s.onLocal)
	return s
}

// SetTracer installs a tracer; nil resets to no-op.
func (s *Service) SetTracer(t trace.Tracer) {
	if t == nil {
		t = trace.Nop
	}
	s.tr = t
}

// OnDeliver registers an additional delivery observer; every observer
// sees each delivery, in registration order. Observers live as long as
// the service — a protocol arm built on this world (see
// internal/protocol) registers one and multiplexes its own replaceable
// slot on top, so arm observers and direct w.MC observers coexist.
func (s *Service) OnDeliver(f DeliverFunc) {
	if f != nil {
		s.onDeliver = append(s.onDeliver, f)
	}
}

// Send multicasts a payload of the given size from the source node to
// the group (Figure 6 step 1). It returns the packet UID used in
// delivery callbacks, or 0 if the source could not start (down node or
// no reachable CH).
func (s *Service) Send(src network.NodeID, g membership.Group, payloadSize int) uint64 {
	net := s.bb.Net()
	n := net.Node(src)
	if n == nil || !n.Up() {
		return 0
	}
	grid := s.bb.Scheme().Grid()
	vc := grid.VCOf(n.Fix().Pos)
	ch := s.bb.Clusters().CHOf(vc)
	if ch == network.NoNode {
		return 0
	}
	uid := net.NextUID()
	now := net.Sim().Now()
	s.Sent++
	hdr := &header{Group: g, PayloadSize: payloadSize}
	if ch == src {
		// The source is itself the CH: no radio hop to reach it.
		slot := logicalid.CHID(grid.Index(vc))
		s.enterMeshTier(slot, uid, now, hdr)
		return uid
	}
	pkt := &network.Packet{
		Kind: SourceKind, Src: src, Dst: ch, Group: int(g),
		Size: payloadSize + s.cfg.HeaderBase, Born: now, UID: uid, Payload: hdr,
	}
	if !s.bb.Geo().Send(src, grid.Center(vc), ch, pkt) {
		return 0
	}
	return uid
}

// onSource runs at the CH that receives a source MN's message.
func (s *Service) onSource(n *network.Node, _ network.NodeID, pkt *network.Packet) {
	hdr, ok := pkt.Payload.(*header)
	if !ok {
		return
	}
	slot := s.bb.SlotOfNode(n.ID)
	if slot < 0 {
		return // CH role moved while the packet was in flight
	}
	s.enterMeshTier(slot, pkt.UID, pkt.Born, hdr)
}

// enterMeshTier is Figure 6 step 2: compute the mesh-tier tree and start
// distribution from the source CH's hypercube.
func (s *Service) enterMeshTier(slot logicalid.CHID, uid uint64, born des.Time, hdr *header) {
	place := s.bb.Scheme().CHIDToPlace(slot)
	hdr.MeshTree = s.meshTree(slot, place.HID, hdr.Group)
	s.enterCube(slot, uid, born, hdr)
}

// versions stamps the inputs tree construction reads: CH occupancy and
// the membership summary views (the internal/route cache key).
func (s *Service) versions() route.Versions {
	return route.Versions{Topo: s.bb.Clusters().Version(), Summary: s.ms.SummaryVersion()}
}

// MeshTreeAt returns the mesh-tier tree rooted at the given hypercube
// over the hypercubes the slot's MT-Summary lists for the group,
// memoized in the backbone's version-keyed route cache. This is THE
// mesh-tree construction: both the data plane (under its TTL layer)
// and the QoS admission path (internal/qos) resolve trees through it,
// so there is exactly one compute to keep deterministic — a second
// closure registered under the same cache key could silently diverge
// behind first-wins caching. Callers must not modify the result.
func (s *Service) MeshTreeAt(slot logicalid.CHID, root logicalid.HID, g membership.Group) route.MeshTree {
	return s.bb.Trees().MeshTree(s.versions(), route.MeshKey{Group: int(g), Root: root, Slot: slot}, func() route.MeshTree {
		mesh := s.bb.Mesh()
		// The destination order shapes the greedy tree: use the sorted
		// slice view of the MT summary, never a map range.
		hids := s.ms.MTSummaryHIDs(slot, g)
		dests := make([]meshtier.ID, len(hids))
		for i, h := range hids {
			dests[i] = int(h)
		}
		raw, _ := mesh.MulticastTree(int(root), dests)
		tree := make(map[logicalid.HID]logicalid.HID, len(raw))
		for child, parent := range raw {
			tree[logicalid.HID(child)] = logicalid.HID(parent)
		}
		return tree
	})
}

// meshTree returns the (possibly cached) mesh-tier tree for the data
// plane. Two layers cache it: the TTL layer reproduces the paper's
// "cache trees for future use" staleness window, and beneath it
// MeshTreeAt memoizes the construction itself, shared with the QoS
// admission path.
func (s *Service) meshTree(slot logicalid.CHID, root logicalid.HID, g membership.Group) map[logicalid.HID]logicalid.HID {
	now := s.bb.Net().Sim().Now()
	byRoot := s.meshCache[g]
	if c, ok := byRoot[root]; ok && c.expires >= now {
		s.TreeCacheHits++
		return c.tree
	}
	s.TreeComputes++
	tree := s.MeshTreeAt(slot, root, g)
	if byRoot == nil {
		byRoot = make(map[logicalid.HID]cachedMeshTree)
		s.meshCache[g] = byRoot
	}
	byRoot[root] = cachedMeshTree{tree: tree, root: root, expires: now + s.cfg.CacheTTL}
	return tree
}

// enterCube is Figure 6 step 4: first arrival of the packet in a
// hypercube. The entry CH forwards toward next-hop hypercubes and fans
// out within its own.
func (s *Service) enterCube(slot logicalid.CHID, uid uint64, born des.Time, hdr *header) {
	place := s.bb.Scheme().CHIDToPlace(slot)
	hid := place.HID
	if s.seenCube[uid] == nil {
		s.seenCube[uid] = make(map[logicalid.HID]bool)
	}
	if s.seenCube[uid][hid] {
		return
	}
	s.seenCube[uid][hid] = true

	// (1) Re-encapsulate toward next-hop hypercubes.
	for _, child := range childrenHID(hdr.MeshTree, hid) {
		s.forwardToCube(slot, child, uid, born, hdr)
	}

	// (2) Compute the hypercube-tier tree and fan out inside.
	cubeHdr := hdr.clone()
	cubeHdr.CubeHID = hid
	cubeHdr.CubeTree = s.cubeTree(slot, hid, hdr.Group)
	cubeHdr.IntraCube = true
	s.forwardWithinCube(slot, uid, born, cubeHdr)
	s.deliverLocal(slot, uid, born, cubeHdr)
}

// childrenHID lists h's children in the mesh tree, in HID order:
// forwarding order must not depend on map iteration, because every
// transmission can draw from the sender's loss stream.
func childrenHID(tree map[logicalid.HID]logicalid.HID, h logicalid.HID) []logicalid.HID {
	return network.Children(tree, h, nil)
}

// forwardToCube sends the packet to an entry CH of the next-hop
// hypercube by location-based unicast (Figure 6 step 3): the
// geographically nearest CH slot of the target block.
func (s *Service) forwardToCube(fromSlot logicalid.CHID, to logicalid.HID, uid uint64, born des.Time, hdr *header) {
	scheme := s.bb.Scheme()
	grid := scheme.Grid()
	fromVC := grid.FromIndex(int(fromSlot))
	var best logicalid.CHID = -1
	bestDist := 1 << 30
	for _, vc := range scheme.BlockVCs(to) {
		if s.bb.Clusters().CHOf(vc) == network.NoNode {
			continue
		}
		if d := vcgrid.DistVCs(fromVC, vc); d < bestDist {
			best, bestDist = logicalid.CHID(grid.Index(vc)), d
		}
	}
	if best < 0 {
		s.tr.Eventf(trace.Multicast, float64(s.bb.Net().Sim().Now()),
			"uid %d: hypercube %d has no CH to enter", uid, to)
		return
	}
	out := hdr.clone()
	out.IntraCube = false
	out.CubeTree = nil
	out.LogicalHops++
	pkt := &network.Packet{
		Kind: DataKind, Src: s.bb.CHNodeOf(fromSlot), Dst: s.bb.CHNodeOf(best),
		Group: int(hdr.Group), Size: s.packetSize(out), Born: born, UID: uid, Payload: out,
	}
	s.bb.Geo().Send(s.bb.CHNodeOf(fromSlot), grid.Center(grid.FromIndex(int(best))), s.bb.CHNodeOf(best), pkt)
}

// cubeTree returns the (possibly cached) hypercube-tier tree for the
// group rooted at the entry slot, spanning the cube's logical link
// graph over the CH slots whose MNT summaries report members.
func (s *Service) cubeTree(slot logicalid.CHID, hid logicalid.HID, g membership.Group) map[logicalid.CHID]logicalid.CHID {
	now := s.bb.Net().Sim().Now()
	key := cubeKey{hid: hid, slot: slot, group: g}
	if c, ok := s.cubeCache[key]; ok && c.expires >= now && c.entry == slot {
		s.TreeCacheHits++
		return c.tree
	}
	s.TreeComputes++
	tree := s.bb.Trees().CubeSlotTree(s.versions(), route.CubeKey{Cube: hid, Entry: slot, Group: int(g)}, func() route.SlotTree {
		dests := s.ms.CubeMembers(slot, g) // sorted by construction
		return s.logicalTreeWithin(hid, slot, dests)
	})
	s.cubeCache[key] = cachedCubeTree{tree: tree, entry: slot, expires: now + s.cfg.CacheTTL}
	return tree
}

// logicalTreeWithin builds a shortest-path tree from root over the
// intra-hypercube logical link graph (the 1-logical-hop routes of
// §4.1), pruned to the paths reaching dests.
func (s *Service) logicalTreeWithin(hid logicalid.HID, root logicalid.CHID, dests []logicalid.CHID) map[logicalid.CHID]logicalid.CHID {
	scheme := s.bb.Scheme()
	parent := map[logicalid.CHID]logicalid.CHID{root: root}
	frontier := []logicalid.CHID{root}
	for len(frontier) > 0 {
		var next []logicalid.CHID
		for _, u := range frontier {
			for _, v := range s.bb.LogicalNeighbors(u) {
				if scheme.CHIDToPlace(v).HID != hid {
					continue
				}
				if _, ok := parent[v]; ok {
					continue
				}
				parent[v] = u
				next = append(next, v)
			}
		}
		frontier = next
	}
	// Prune to the destination-spanning subtree.
	tree := map[logicalid.CHID]logicalid.CHID{root: root}
	for _, d := range dests {
		if _, ok := parent[d]; !ok {
			continue // unreachable in the current logical graph
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

// forwardWithinCube is Figure 6 step 5: push the packet down the
// hypercube-tier tree along 1-logical-hop routes. Children forward in
// slot order (not map order) so the senders' loss streams see a
// deterministic transmission sequence.
func (s *Service) forwardWithinCube(slot logicalid.CHID, uid uint64, born des.Time, hdr *header) {
	for _, childSlot := range s.cubeChildren(hdr.CubeTree, slot) {
		if s.bb.CHNodeOf(childSlot) == network.NoNode {
			continue // CH vanished since the tree was computed
		}
		if s.cfg.MinBandwidth > 0 || s.cfg.MaxDelay > 0 {
			if s.bb.BestRoute(slot, childSlot, s.cfg.MinBandwidth, s.cfg.MaxDelay) == nil {
				s.tr.Eventf(trace.Multicast, float64(s.bb.Net().Sim().Now()),
					"uid %d: QoS gate blocked %d -> %d", uid, slot, childSlot)
				continue
			}
		}
		out := hdr.clone()
		out.LogicalHops++
		pkt := &network.Packet{
			Kind: DataKind, Src: s.bb.CHNodeOf(slot), Dst: s.bb.CHNodeOf(childSlot),
			Group: int(hdr.Group), Size: s.packetSize(out), Born: born, UID: uid, Payload: out,
		}
		s.bb.SendLogical(slot, childSlot, pkt)
	}
}

// onData handles CH-to-CH multicast packets at both tiers.
func (s *Service) onData(n *network.Node, _ network.NodeID, pkt *network.Packet) {
	hdr, ok := pkt.Payload.(*header)
	if !ok {
		return
	}
	slot := s.bb.SlotOfNode(n.ID)
	if slot < 0 {
		return
	}
	if !hdr.IntraCube {
		s.enterCube(slot, pkt.UID, pkt.Born, hdr)
		return
	}
	if s.seenSlot[pkt.UID] == nil {
		s.seenSlot[pkt.UID] = make(map[logicalid.CHID]bool)
	}
	if s.seenSlot[pkt.UID][slot] {
		return
	}
	s.seenSlot[pkt.UID][slot] = true
	s.forwardWithinCube(slot, pkt.UID, pkt.Born, hdr)
	s.deliverLocal(slot, pkt.UID, pkt.Born, hdr)
}

// deliverLocal is Figure 6 step 6: when the MNT view shows local group
// members, broadcast once into the cluster.
func (s *Service) deliverLocal(slot logicalid.CHID, uid uint64, born des.Time, hdr *header) {
	members := s.ms.LocalMembers(slot, hdr.Group)
	ch := s.bb.CHNodeOf(slot)
	if ch == network.NoNode {
		return
	}
	// The CH itself may be a member: deliver without radio traffic.
	for _, m := range members {
		if m == ch {
			s.recordDelivery(m, uid, born, hdr)
		}
	}
	if len(members) == 0 || (len(members) == 1 && members[0] == ch) {
		return
	}
	pkt := &network.Packet{
		Kind: LocalKind, Src: ch, Dst: network.NoNode, Group: int(hdr.Group),
		Size: hdr.PayloadSize + s.cfg.HeaderBase, Born: born, UID: uid, Payload: hdr,
	}
	s.bb.Net().Broadcast(ch, pkt)
}

// onLocal runs at every node hearing a cluster-local broadcast.
func (s *Service) onLocal(n *network.Node, _ network.NodeID, pkt *network.Packet) {
	hdr, ok := pkt.Payload.(*header)
	if !ok {
		return
	}
	groups := s.ms.GroupsOf(n.ID)
	joined := false
	for _, g := range groups {
		if g == hdr.Group {
			joined = true
			break
		}
	}
	if !joined {
		return
	}
	s.recordDelivery(n.ID, pkt.UID, pkt.Born, hdr)
}

func (s *Service) recordDelivery(member network.NodeID, uid uint64, born des.Time, hdr *header) {
	if s.seenLocal[uid] == nil {
		s.seenLocal[uid] = make(map[network.NodeID]bool)
	}
	if s.seenLocal[uid][member] {
		return
	}
	s.seenLocal[uid][member] = true
	s.Delivered++
	for _, f := range s.onDeliver {
		f(member, uid, born, hdr.LogicalHops)
	}
}

// packetSize prices a DataKind packet: payload plus base header plus the
// encoded trees.
func (s *Service) packetSize(hdr *header) int {
	size := hdr.PayloadSize + s.cfg.HeaderBase + len(hdr.MeshTree)*s.cfg.TreeEntry
	if hdr.IntraCube {
		size += len(hdr.CubeTree) * s.cfg.TreeEntry
	}
	return size
}

// DeliveredTo reports whether the packet uid reached the member.
func (s *Service) DeliveredTo(uid uint64, member network.NodeID) bool {
	return s.seenLocal[uid][member]
}

// DeliveryCount returns how many distinct members received the uid.
func (s *Service) DeliveryCount(uid uint64) int { return len(s.seenLocal[uid]) }

// ForgetPacket releases dedup state for a uid (long experiments call it
// to bound memory).
func (s *Service) ForgetPacket(uid uint64) {
	delete(s.seenCube, uid)
	delete(s.seenSlot, uid)
	delete(s.seenLocal, uid)
}
