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
//
// Duplicate suppression — one entry per hypercube, one forward per CH
// slot, one delivery per member — is simulator bookkeeping rather than
// protocol state: it lives in a per-Send flight record that every copy
// of the packet carries by pointer, so it costs no lookup keyed by uid,
// allocates once per send and is garbage as soon as the last copy is
// off the air.
package multicast

import (
	"slices"

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

// bitset is a dense set of small non-negative integers.
type bitset []uint64

// add inserts i and reports whether it was absent. An index beyond the
// set's size (flights size theirs at send time; a node may be added
// while copies are on the air) grows the set.
func (b *bitset) add(i int) bool {
	w, bit := i>>6, uint64(1)<<uint(i&63)
	for w >= len(*b) {
		*b = append(*b, 0)
	}
	if (*b)[w]&bit != 0 {
		return false
	}
	(*b)[w] |= bit
	return true
}

// flight is the record of one Send, carried by pointer in the header of
// every copy of the packet: what all copies have in common (group,
// payload size) and what has already happened to the packet (the three
// duplicate-suppression sets). The copies are the only strong holders,
// so the record dies with the last one in flight. Writes happen in geo
// consumes and broadcast deliveries, which are serial-lane events.
type flight struct {
	group   membership.Group
	payload int // application payload in bytes

	cubes   bitset // hypercubes entered, by HID (step 4 runs once per cube)
	slots   bitset // CH slots that forwarded within their cube (step 5)
	members bitset // members delivered to, by node ID (step 6)
}

// header is the encapsulated routing state carried by DataKind packets.
// Once the source CH has filled in the mesh tree a header is never
// written again, and it is the same for every copy in one tier of one
// send: the mesh tier travels under the Send's own header, and each
// entered hypercube under one header its entry CH builds, which every
// CH inside passes on. What differs per copy, the logical hop count,
// rides the packet itself (network.Packet.Relays).
type header struct {
	fl *flight
	// MeshTree is parent pointers over hypercube IDs (step 2).
	MeshTree map[logicalid.HID]logicalid.HID
	// CubeTree is the hypercube-tier tree of the hypercube currently
	// being traversed (step 4), as parent pointers over CH slots. The
	// tree spans the cube's *logical link graph* — hypercube label edges
	// plus grid-adjacency edges, exactly the 1-logical-hop routes of
	// §4.1 — so it survives label-graph disconnection in incomplete
	// cubes. IntraCube marks packets already traveling inside the cube.
	CubeTree  map[logicalid.CHID]logicalid.CHID
	IntraCube bool
}

// DeliverFunc observes one member delivery.
type DeliverFunc func(member network.NodeID, uid uint64, born des.Time, logicalHops int)

type cachedMeshTree struct {
	tree    map[logicalid.HID]logicalid.HID
	expires des.Time
}

type cachedCubeTree struct {
	tree    map[logicalid.CHID]logicalid.CHID
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
	// trOn gates the trace calls on the forwarding path: their
	// arguments box into an interface slice even when the tracer is Nop.
	trOn bool

	meshCache map[membership.Group]map[logicalid.HID]cachedMeshTree
	cubeCache map[cubeKey]cachedCubeTree

	onDeliver []DeliverFunc

	// childScratch, meshScratch and localScratch are the reusable
	// buffers of forwardWithinCube's sorted children, enterCube's sorted
	// next-hop hypercubes and deliverLocal's member list (forwarding is
	// never reentrant: receptions arrive as separate simulator events).
	childScratch []logicalid.CHID
	meshScratch  []logicalid.HID
	localScratch []network.NodeID

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
	s.trOn = t != trace.Nop
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
	hdr := &header{fl: s.newFlight(g, payloadSize)}
	if ch == src {
		// The source is itself the CH: no radio hop to reach it.
		slot := logicalid.CHID(grid.Index(vc))
		s.enterMeshTier(slot, uid, now, 0, hdr)
	} else {
		pkt := s.acquire(SourceKind, src, ch, payloadSize+s.cfg.HeaderBase, now, uid, 0, hdr)
		ok := s.bb.Geo().Send(src, grid.Center(vc), ch, pkt)
		net.ReleasePacket(pkt)
		if !ok {
			return 0
		}
	}
	s.Sent++ // only sends that started: Sent matches the uids handed out
	return uid
}

// newFlight sizes a flight's sets for the world as it is now. One
// allocation backs all three; the capacity limits keep a set that grows
// from running into its neighbor.
func (s *Service) newFlight(g membership.Group, payloadSize int) *flight {
	scheme := s.bb.Scheme()
	cw := (scheme.NumHypercubes() + 63) / 64
	sw := cw + (scheme.Grid().Count()+63)/64
	sets := make([]uint64, sw+(s.bb.Net().Len()+63)/64)
	return &flight{group: g, payload: payloadSize, cubes: sets[:cw:cw], slots: sets[cw:sw:sw], members: sets[sw:]}
}

// acquire fills a pooled packet of the multicast plane, stamping the
// copy's logical hop count on it. The caller releases it right after
// handing it to the transport: in-flight deliveries (and the geo
// envelopes that adopt it) keep it alive.
func (s *Service) acquire(kind string, src, dst network.NodeID, size int, born des.Time, uid uint64, hops int32, hdr *header) *network.Packet {
	pkt := s.bb.Net().AcquirePacket()
	pkt.Kind = kind
	pkt.Src, pkt.Dst = src, dst
	pkt.Group, pkt.Size = int(hdr.fl.group), size
	pkt.Born, pkt.UID = born, uid
	pkt.Relays = hops
	pkt.Payload = hdr
	return pkt
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
	s.enterMeshTier(slot, pkt.UID, pkt.Born, pkt.Relays, hdr)
}

// enterMeshTier is Figure 6 step 2: compute the mesh-tier tree and start
// distribution from the source CH's hypercube.
func (s *Service) enterMeshTier(slot logicalid.CHID, uid uint64, born des.Time, hops int32, hdr *header) {
	place := s.bb.Scheme().CHIDToPlace(slot)
	hdr.MeshTree = s.meshTree(slot, place.HID, hdr.fl.group)
	s.enterCube(slot, uid, born, hops, hdr)
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
	byRoot[root] = cachedMeshTree{tree: tree, expires: now + s.cfg.CacheTTL}
	return tree
}

// enterCube is Figure 6 step 4: first arrival of the packet, under the
// mesh-tier header hdr, in a hypercube. The entry CH forwards toward
// next-hop hypercubes under that same header and fans out within its
// own.
func (s *Service) enterCube(slot logicalid.CHID, uid uint64, born des.Time, hops int32, hdr *header) {
	hid := s.bb.Scheme().CHIDToPlace(slot).HID
	if !hdr.fl.cubes.add(int(hid)) {
		return
	}

	// (1) Re-encapsulate toward next-hop hypercubes, in HID order:
	// forwarding order must not depend on map iteration, because every
	// transmission can draw from the sender's loss stream.
	s.meshScratch = network.Children(hdr.MeshTree, hid, s.meshScratch[:0])
	for _, child := range s.meshScratch {
		s.forwardToCube(slot, child, uid, born, hops+1, hdr)
	}

	// (2) Compute the hypercube-tier tree and fan out inside.
	s.forwardWithinCube(slot, uid, born, hops, hdr, s.cubeTree(slot, hid, hdr.fl.group))
	s.deliverLocal(slot, uid, born, hops, hdr)
}

// forwardToCube sends the packet, under the mesh-tier header out and
// with hops logical hops behind it on arrival, to an entry CH of the
// next-hop hypercube by location-based unicast (Figure 6 step 3): the
// geographically nearest CH slot of the target block.
func (s *Service) forwardToCube(fromSlot logicalid.CHID, to logicalid.HID, uid uint64, born des.Time, hops int32, out *header) {
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
		if s.trOn {
			s.tr.Eventf(trace.Multicast, float64(s.bb.Net().Sim().Now()),
				"uid %d: hypercube %d has no CH to enter", uid, to)
		}
		return
	}
	from, dst := s.bb.CHNodeOf(fromSlot), s.bb.CHNodeOf(best)
	pkt := s.acquire(DataKind, from, dst, s.packetSize(out), born, uid, hops, out)
	s.bb.Geo().Send(from, grid.Center(grid.FromIndex(int(best))), dst, pkt)
	s.bb.Net().ReleasePacket(pkt)
}

// cubeTree returns the (possibly cached) hypercube-tier tree for the
// group rooted at the entry slot, spanning the cube's logical link
// graph over the CH slots whose MNT summaries report members.
func (s *Service) cubeTree(slot logicalid.CHID, hid logicalid.HID, g membership.Group) map[logicalid.CHID]logicalid.CHID {
	now := s.bb.Net().Sim().Now()
	key := cubeKey{hid: hid, slot: slot, group: g}
	if c, ok := s.cubeCache[key]; ok && c.expires >= now {
		s.TreeCacheHits++
		return c.tree
	}
	s.TreeComputes++
	tree := s.bb.Trees().CubeSlotTree(s.versions(), route.CubeKey{Cube: hid, Entry: slot, Group: int(g)}, func() route.SlotTree {
		dests := s.ms.CubeMembers(slot, g) // sorted by construction
		return s.logicalTreeWithin(hid, slot, dests)
	})
	s.cubeCache[key] = cachedCubeTree{tree: tree, expires: now + s.cfg.CacheTTL}
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

// forwardWithinCube is Figure 6 step 5: push the packet that arrived
// under hdr, hops logical hops from its source CH, down the
// hypercube-tier tree along 1-logical-hop routes. Children forward in
// slot order (not map order) so the senders' loss streams see a
// deterministic transmission sequence. Only the entry CH builds a
// header, the cube's one; every CH inside passes on the one it got.
func (s *Service) forwardWithinCube(slot logicalid.CHID, uid uint64, born des.Time, hops int32, hdr *header, tree map[logicalid.CHID]logicalid.CHID) {
	out := hdr
	from := s.bb.CHNodeOf(slot)
	for _, childSlot := range s.cubeChildren(tree, slot) {
		dst := s.bb.CHNodeOf(childSlot)
		if dst == network.NoNode {
			continue // CH vanished since the tree was computed
		}
		if s.cfg.MinBandwidth > 0 || s.cfg.MaxDelay > 0 {
			if s.bb.BestRoute(slot, childSlot, s.cfg.MinBandwidth, s.cfg.MaxDelay) == nil {
				if s.trOn {
					s.tr.Eventf(trace.Multicast, float64(s.bb.Net().Sim().Now()),
						"uid %d: QoS gate blocked %d -> %d", uid, slot, childSlot)
				}
				continue
			}
		}
		if !out.IntraCube {
			out = &header{fl: hdr.fl, MeshTree: hdr.MeshTree, CubeTree: tree, IntraCube: true}
		}
		pkt := s.acquire(DataKind, from, dst, s.packetSize(out), born, uid, hops+1, out)
		s.bb.SendLogical(slot, childSlot, pkt)
		s.bb.Net().ReleasePacket(pkt)
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
		s.enterCube(slot, pkt.UID, pkt.Born, pkt.Relays, hdr)
		return
	}
	if !hdr.fl.slots.add(int(slot)) {
		return
	}
	s.forwardWithinCube(slot, pkt.UID, pkt.Born, pkt.Relays, hdr, hdr.CubeTree)
	s.deliverLocal(slot, pkt.UID, pkt.Born, pkt.Relays, hdr)
}

// deliverLocal is Figure 6 step 6: when the MNT view shows local group
// members, broadcast once into the cluster.
func (s *Service) deliverLocal(slot logicalid.CHID, uid uint64, born des.Time, hops int32, hdr *header) {
	s.localScratch = s.ms.AppendLocalMembers(s.localScratch[:0], slot, hdr.fl.group)
	ch := s.bb.CHNodeOf(slot)
	if ch == network.NoNode {
		return
	}
	// Read the scratch out before any delivery observer runs: an
	// observer may Send, and that send may pass through here.
	others := len(s.localScratch)
	if slices.Contains(s.localScratch, ch) {
		// The CH itself is a member: deliver without radio traffic.
		others--
		s.recordDelivery(ch, uid, born, hops, hdr)
	}
	if others == 0 {
		return
	}
	pkt := s.acquire(LocalKind, ch, network.NoNode, hdr.fl.payload+s.cfg.HeaderBase, born, uid, hops, hdr)
	s.bb.Net().Broadcast(ch, pkt)
	s.bb.Net().ReleasePacket(pkt)
}

// onLocal runs at every node hearing a cluster-local broadcast.
func (s *Service) onLocal(n *network.Node, _ network.NodeID, pkt *network.Packet) {
	hdr, ok := pkt.Payload.(*header)
	if !ok {
		return
	}
	if s.ms.IsMember(n.ID, hdr.fl.group) {
		s.recordDelivery(n.ID, pkt.UID, pkt.Born, pkt.Relays, hdr)
	}
}

func (s *Service) recordDelivery(member network.NodeID, uid uint64, born des.Time, hops int32, hdr *header) {
	if !hdr.fl.members.add(int(member)) {
		return
	}
	s.Delivered++
	for _, f := range s.onDeliver {
		f(member, uid, born, int(hops))
	}
}

// packetSize prices a DataKind packet: payload plus base header plus the
// encoded trees.
func (s *Service) packetSize(hdr *header) int {
	size := hdr.fl.payload + s.cfg.HeaderBase + len(hdr.MeshTree)*s.cfg.TreeEntry
	if hdr.IntraCube {
		size += len(hdr.CubeTree) * s.cfg.TreeEntry
	}
	return size
}
