// Package membership implements the paper's Figure 5 algorithm:
// summary-based membership update across the three tiers.
//
//	Local-Membership — which groups each mobile node has joined; sent
//	    periodically from each MN to its CH.
//	MNT-Summary — the CH's aggregation over its cluster members; sent
//	    periodically to all the CHs within its logical hypercube
//	    (realized as a scoped flood over intra-hypercube logical links).
//	HT-Summary — each CH's aggregation over the MNT-Summaries of its
//	    hypercube; one *designated* CH per hypercube broadcasts it to all
//	    CHs in the whole network. Designation needs no coordination: each
//	    CH applies the paper's criterion — the largest total number of
//	    group members held by itself and its 1-logical-hop neighbor CHs
//	    — to its own collected summaries and self-selects on a tie-break
//	    by lowest CHID.
//	MT-Summary — each CH's map from group to the set of hypercubes
//	    containing members, consumed by the multicast routing algorithm.
//
// Timeouts follow the paper's observation that "the timeout interval for
// broadcasting HT-Summary messages can be set much more larger than that
// for sending MNT-Summary or Local-Membership messages".
package membership

import (
	"cmp"
	"math/bits"
	"slices"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/logicalid"
	"repro/internal/network"
	"repro/internal/vcgrid"
)

// Group identifies a multicast group.
type Group int

// GroupCount is one entry of a summary: a group and its member count.
// Summaries are slices of them sorted by group, non-zero counts only.
type GroupCount struct {
	Group Group
	Count int
}

// countOf returns g's count in a summary (0 when absent).
func countOf(sum []GroupCount, g Group) int {
	i, ok := slices.BinarySearchFunc(sum, g, func(e GroupCount, g Group) int { return cmp.Compare(e.Group, g) })
	if !ok {
		return 0
	}
	return sum[i].Count
}

// sortedCounts sorts pairs by group and sums the counts of equal groups,
// both in place, and returns the result as a fresh summary.
func sortedCounts(pairs []GroupCount) []GroupCount {
	slices.SortFunc(pairs, func(a, b GroupCount) int { return cmp.Compare(a.Group, b.Group) })
	out := pairs[:0]
	for _, p := range pairs {
		if k := len(out) - 1; k >= 0 && out[k].Group == p.Group {
			out[k].Count += p.Count
		} else {
			out = append(out, p)
		}
	}
	return slices.Clone(out)
}

// Packet kinds of the membership plane.
const (
	LocalKind = "local-membership"
	MNTKind   = "mnt-summary"
	HTKind    = "ht-summary"
)

// Config parameterizes the membership plane.
type Config struct {
	// LocalPeriod is the MN -> CH Local-Membership interval.
	LocalPeriod des.Duration
	// MNTPeriod is the CH -> hypercube MNT-Summary interval.
	MNTPeriod des.Duration
	// HTPeriod is the designated-CH network-wide HT-Summary interval.
	HTPeriod des.Duration
	// LocalTTL expires a member's report at its CH when not refreshed —
	// covering members that move to another cluster or die silently.
	LocalTTL des.Duration
	// Header and GroupEntry size the messages in bytes.
	Header, GroupEntry int
	// Designation selects the HT-broadcaster criterion (§4.2 discusses
	// the alternatives); see the Designate* constants.
	Designation DesignationPolicy
	// MultiHome reports Local-Membership to *every* covering cluster
	// (the paper's §3 overlap: "an MN within the overlapped regions can
	// be a cluster member of two or multiple clusters at the same time
	// for more reliable communications"), at proportionally higher
	// report cost. Off, a node reports only to its home VC's CH.
	MultiHome bool
}

// DesignationPolicy selects which CH self-designates as its hypercube's
// HT-Summary broadcaster.
type DesignationPolicy int

const (
	// DesignateSelfPlusNeighbors is the paper's preferred criterion:
	// the CH whose own plus 1-logical-hop neighbors' total group
	// membership is largest.
	DesignateSelfPlusNeighbors DesignationPolicy = iota
	// DesignateSelf uses only the CH's own membership count (the
	// paper's simpler alternative).
	DesignateSelf
	// DesignateFixed always picks the lowest CHID with a CH — the
	// "always designate the same CH" strawman the paper rejects as a
	// bottleneck/reliability risk.
	DesignateFixed
)

// DefaultConfig uses a 1:2:8 cadence, HT slowest per the paper.
func DefaultConfig() Config {
	return Config{LocalPeriod: 1, MNTPeriod: 2, HTPeriod: 8, LocalTTL: 2.5, Header: 12, GroupEntry: 6}
}

// noOrigin marks an empty lane in the dense per-origin views.
const noOrigin logicalid.CHID = -1

// lanes is a per-origin map laid out densely: each origin has a lane
// index (its in-cube label for the MNT view and MNT dedup, its
// hypercube for HT dedup), and the lane's origin guards its value. A
// different origin landing in an occupied lane (a CH role that moved
// cube mid-flight, or a designation change) evicts the occupant to a
// spill map, so the pair keeps exact per-origin map semantics at
// array-index cost on the hot path. Every origin lives in exactly one
// place across lanes and spill, so iteration never double-counts.
type lanes[V any] struct {
	lane  []lane[V]
	spill map[logicalid.CHID]V
}

// lane is one dense entry: the origin occupying it and its value.
type lane[V any] struct {
	origin logicalid.CHID
	v      V
}

func newLanes[V any](n int) lanes[V] {
	l := lanes[V]{lane: make([]lane[V], n)}
	for i := range l.lane {
		l.lane[i].origin = noOrigin
	}
	return l
}

// get returns origin's value (the zero V when unknown), checking its
// lane first and the spill map otherwise.
func (l *lanes[V]) get(idx int, origin logicalid.CHID) V {
	if e := &l.lane[idx]; e.origin == origin {
		return e.v
	}
	return l.spill[origin]
}

// set stores v for origin in lane idx and reports whether origin was
// installed there (it did not occupy the lane before). Installing moves
// a different occupant to the spill map and drops origin's own spill
// entry.
func (l *lanes[V]) set(idx int, origin logicalid.CHID, v V) bool {
	e := &l.lane[idx]
	installed := e.origin != origin
	if installed {
		if e.origin != noOrigin {
			if l.spill == nil {
				l.spill = make(map[logicalid.CHID]V)
			}
			l.spill[e.origin] = e.v
		}
		delete(l.spill, origin)
		e.origin = origin
	}
	e.v = v
	return installed
}

// each calls f for every known origin, lanes first, then spill.
// Consumers re-derive order-sensitive outputs by sorting.
func (l *lanes[V]) each(f func(origin logicalid.CHID, v V)) {
	for _, e := range l.lane {
		if e.origin != noOrigin {
			f(e.origin, e.v)
		}
	}
	for origin, v := range l.spill {
		f(origin, v)
	}
}

// slotState is the membership view accumulated at one CH slot. The MNT
// view and flood dedup are lanes (see lanes); the MT view is a
// group × hypercube bitset. The dense layout exists because onMNT/onHT
// run once per flood reception, which at 10k nodes is the simulator's
// hottest protocol-plane path.
type slotState struct {
	// hid is the slot's own hypercube, fixed by geometry.
	hid logicalid.HID

	// localView: the last Local-Membership report of each member node
	// of this cluster and when it arrived. An empty report deletes the
	// node.
	localView map[network.NodeID]localReport

	// mnt: origin -> that origin's MNT summary, laned by origin label.
	mnt lanes[[]GroupCount]

	// mt is the MT view (HT-Summary broadcasts plus own hypercube): a
	// row of Service.mtWords words per group of mtGroups, in that order;
	// bit h of a group's row says hypercube h has members of the group.
	// A group gets its row when a summary first carries it here.
	mtGroups []Group // sorted
	mt       []uint64

	// Flood dedup, the highest sequence seen per origin: seenMNT laned
	// by origin label, seenHT by the origin's hypercube (one designated
	// broadcaster per cube at a time).
	seenMNT, seenHT lanes[uint64]
}

func newSlotState(hid logicalid.HID, labels, numHID int) *slotState {
	return &slotState{
		hid:       hid,
		localView: make(map[network.NodeID]localReport),
		mnt:       newLanes[[]GroupCount](labels),
		seenMNT:   newLanes[uint64](labels),
		seenHT:    newLanes[uint64](numHID),
	}
}

// summaryMsg is the wire form of MNT- and HT-Summary floods.
type summaryMsg struct {
	Origin logicalid.CHID
	HID    logicalid.HID
	Seq    uint64
	Groups []GroupCount
}

// localMsg is the wire form of Local-Membership reports.
type localMsg struct {
	Member network.NodeID
	Groups []Group
}

// localReport is a CH's record of one member's last report. groups is
// the report's own slice, which no one mutates.
type localReport struct {
	groups []Group
	seen   des.Time
}

// Service runs the membership plane over a backbone.
type Service struct {
	bb  *core.Backbone
	cfg Config

	// Member-side state is sparse: only nodes that have joined a group
	// (or owe one final empty report after leaving their last one) carry
	// an entry, and active keeps their IDs sorted ascending so
	// LocalRound visits them in exactly the order the old dense
	// every-node scan did. Idle nodes in a mega-world cost nothing here.
	members map[network.NodeID]*memberState
	active  []network.NodeID // sorted keys of members
	slots   []*slotState     // by CH slot index (grid.Count() lanes)
	labels  int              // 2^dim, the in-cube label space
	mtWords int              // words per MT-view row: ⌈hypercubes/64⌉
	seq     uint64

	// pairs is sortedCounts's input, reused across summaries.
	pairs []GroupCount

	// version counts mutations of the summary views trees are computed
	// from (the MNT and MT views); see SummaryVersion.
	version uint64

	tickers []*des.Ticker

	// HTBroadcasts counts designated-CH broadcasts for overhead
	// experiments.
	HTBroadcasts uint64
}

// New wires a membership service onto the backbone's logical transport.
func New(bb *core.Backbone, cfg Config) *Service {
	if cfg.LocalPeriod <= 0 {
		cfg = DefaultConfig()
	}
	s := &Service{
		bb:      bb,
		cfg:     cfg,
		members: make(map[network.NodeID]*memberState),
		slots:   make([]*slotState, bb.Scheme().Grid().Count()),
		labels:  1 << uint(bb.Scheme().Dim()),
		mtWords: (bb.Scheme().NumHypercubes() + 63) / 64,
	}
	bb.HandleInner(LocalKind, s.onLocal)
	bb.HandleInner(MNTKind, s.onMNT)
	bb.HandleInner(HTKind, s.onHT)
	return s
}

// memberState is the member-side record of one node that currently
// belongs to a group, or still owes its final empty report.
type memberState struct {
	joined   []Group // sorted
	reported bool    // sent a non-empty report last round
}

// state returns the node's member record, materializing it (and
// splicing the ID into the sorted active list) on first touch.
func (s *Service) state(id network.NodeID) *memberState {
	st := s.members[id]
	if st == nil {
		st = &memberState{}
		s.members[id] = st
		i, _ := slices.BinarySearch(s.active, id)
		s.active = slices.Insert(s.active, i, id)
	}
	return st
}

// Join records that the node joined the group (Figure 5 step 1); the
// change propagates on the next Local-Membership round.
func (s *Service) Join(id network.NodeID, g Group) {
	st := s.state(id)
	if i, ok := slices.BinarySearch(st.joined, g); !ok {
		st.joined = slices.Insert(st.joined, i, g)
	}
}

// Leave records that the node left the group.
func (s *Service) Leave(id network.NodeID, g Group) {
	if st := s.members[id]; st != nil {
		if i, ok := slices.BinarySearch(st.joined, g); ok {
			st.joined = slices.Delete(st.joined, i, i+1)
		}
	}
}

// IsMember reports whether the node has joined the group. It is the
// data plane's per-listener filter: one map probe and a binary search,
// no allocation.
func (s *Service) IsMember(id network.NodeID, g Group) bool {
	st := s.members[id]
	if st == nil {
		return false
	}
	_, ok := slices.BinarySearch(st.joined, g)
	return ok
}

// GroupsOf returns a copy of the groups the node has joined, sorted.
// Local-Membership reports carry it, and CHs keep the report's slice.
func (s *Service) GroupsOf(id network.NodeID) []Group {
	st := s.members[id]
	if st == nil {
		return nil
	}
	return slices.Clone(st.joined)
}

// Start schedules the three periodic rounds.
func (s *Service) Start() {
	sim := s.bb.Net().Sim()
	s.tickers = append(s.tickers,
		sim.Every(s.cfg.LocalPeriod, s.cfg.LocalPeriod, s.LocalRound),
		sim.Every(s.cfg.MNTPeriod, s.cfg.MNTPeriod, s.MNTRound),
		sim.Every(s.cfg.HTPeriod, s.cfg.HTPeriod, s.HTRound),
	)
}

// Stop cancels the periodic rounds.
func (s *Service) Stop() {
	for _, t := range s.tickers {
		t.Stop()
	}
	s.tickers = nil
}

func (s *Service) slot(c logicalid.CHID) *slotState {
	st := s.slots[c]
	if st == nil {
		st = newSlotState(s.bb.Scheme().CHIDToPlace(c).HID, s.labels, s.bb.Scheme().NumHypercubes())
		s.slots[c] = st
	}
	return st
}

// SummaryVersion counts mutations of the views multicast trees are
// computed from — the per-cube MNT views (CubeMembers' input) and the
// MT views (MTSummaryHIDs' input). A tree memoized at one version is
// guaranteed to equal a fresh computation while the version holds,
// which is the membership half of the internal/route cache key.
func (s *Service) SummaryVersion() uint64 { return s.version }

// labelOf returns the dense lane index of an origin slot: its in-cube
// label (unique among the origins of any one hypercube).
func (s *Service) labelOf(origin logicalid.CHID) int {
	return int(s.bb.Scheme().CHIDToPlace(origin).HNID)
}

// setMNT stores origin's summary, bumping the summary version when
// the stored view changes or origin is installed into its lane.
func (s *Service) setMNT(st *slotState, origin logicalid.CHID, groups []GroupCount) {
	idx := s.labelOf(origin)
	prev := st.mnt.get(idx, origin)
	if st.mnt.set(idx, origin, groups) || !slices.Equal(prev, groups) {
		s.version++
	}
}

// LocalRound is Figure 5 step 2: every member MN reports its
// Local-Membership to its cluster head.
func (s *Service) LocalRound() {
	net := s.bb.Net()
	cm := s.bb.Clusters()
	grid := s.bb.Scheme().Grid()
	// Visit only nodes carrying member state, in ascending ID order —
	// the same nodes, in the same order, the old dense every-node scan
	// reported after its skip filter.
	kept := s.active[:0]
	for _, id := range s.active {
		st := s.members[id]
		n := net.Node(id)
		if n == nil || !n.Up() {
			kept = append(kept, id)
			continue
		}
		// A node reports when it has memberships, plus one final empty
		// report right after leaving its last group so the CH forgets it
		// immediately; after that final report its record retires.
		if len(st.joined) == 0 && !st.reported {
			delete(s.members, id)
			continue
		}
		kept = append(kept, id)
		st.reported = len(st.joined) > 0
		pos := n.Fix().Pos
		vcs := []vcgrid.VC{grid.VCOf(pos)}
		if s.cfg.MultiHome {
			vcs = grid.Covering(pos)
		}
		groups := s.GroupsOf(n.ID)
		msg := &localMsg{Member: n.ID, Groups: groups}
		for _, vc := range vcs {
			ch := cm.CHOf(vc)
			if ch == network.NoNode {
				continue
			}
			if ch == n.ID {
				// The CH reports to itself without radio traffic.
				s.absorbLocal(logicalid.CHID(grid.Index(vc)), msg)
				continue
			}
			pkt := net.AcquirePacket()
			pkt.Kind = LocalKind
			pkt.Src, pkt.Dst = n.ID, ch
			pkt.Size, pkt.Control = s.cfg.Header+len(groups)*s.cfg.GroupEntry, true
			pkt.Born, pkt.UID = net.Sim().Now(), net.NextUID()
			pkt.Payload = msg
			s.bb.Geo().Send(n.ID, grid.Center(vc), ch, pkt)
			net.ReleasePacket(pkt)
		}
	}
	s.active = kept
}

func (s *Service) onLocal(n *network.Node, _ network.NodeID, pkt *network.Packet) {
	msg, ok := pkt.Payload.(*localMsg)
	if !ok {
		return
	}
	slot := s.bb.SlotOfNode(n.ID)
	if slot < 0 {
		return
	}
	s.absorbLocal(slot, msg)
}

func (s *Service) absorbLocal(slot logicalid.CHID, msg *localMsg) {
	st := s.slot(slot)
	if len(msg.Groups) == 0 {
		delete(st.localView, msg.Member)
		return
	}
	st.localView[msg.Member] = localReport{groups: msg.Groups, seen: s.bb.Net().Sim().Now()}
}

// fresh reports whether a member's report is still within LocalTTL.
func (s *Service) fresh(seen des.Time) bool {
	if s.cfg.LocalTTL <= 0 {
		return true
	}
	return s.bb.Net().Sim().Now()-seen <= s.cfg.LocalTTL
}

// MNTSummary returns the CH slot's aggregated cluster membership, the
// fresh member count of each group (Figure 5 step 3's message body).
func (s *Service) MNTSummary(slot logicalid.CHID) []GroupCount {
	pairs := s.pairs[:0]
	for _, r := range s.slot(slot).localView {
		if s.fresh(r.seen) {
			for _, g := range r.groups {
				pairs = append(pairs, GroupCount{g, 1})
			}
		}
	}
	s.pairs = pairs
	return sortedCounts(pairs)
}

// AppendLocalMembers appends the nodes of the slot's cluster known to
// have joined the group — the delivery set of Figure 6 step 6 — to dst,
// sorted, and returns the extended slice (the usual append contract), so
// the data plane can reuse one scratch buffer across CH visits.
func (s *Service) AppendLocalMembers(dst []network.NodeID, slot logicalid.CHID, g Group) []network.NodeID {
	mark := len(dst)
	for id, r := range s.slot(slot).localView {
		if s.fresh(r.seen) && slices.Contains(r.groups, g) {
			dst = append(dst, id)
		}
	}
	network.SortedIDs(dst[mark:])
	return dst
}

// MNTRound is Figure 5 step 3: every CH floods its MNT-Summary to all
// CHs within its hypercube. CHs send in slot order, so the transmission
// sequence (and with it every sender's loss-stream draw order) is
// identical across reruns.
func (s *Service) MNTRound() {
	scheme := s.bb.Scheme()
	for _, idx := range s.bb.Clusters().HeadSlots() {
		slot := logicalid.CHID(idx)
		ch := s.bb.CHNodeOf(slot)
		vc := scheme.Grid().FromIndex(int(slot))
		place := scheme.PlaceOf(vc)
		s.seq++
		msg := &summaryMsg{Origin: slot, HID: place.HID, Seq: s.seq, Groups: s.MNTSummary(slot)}
		// Record our own summary in our own view first.
		st := s.slot(slot)
		s.setMNT(st, slot, msg.Groups)
		st.seenMNT.set(s.labelOf(slot), slot, msg.Seq)
		s.floodMNT(slot, msg, ch)
	}
}

// floodMNT forwards an MNT summary to intra-hypercube logical neighbors
// that have not seen it (the sender cannot know, so it sends to all and
// receivers dedup — standard scoped flooding).
func (s *Service) floodMNT(from logicalid.CHID, msg *summaryMsg, ch network.NodeID) {
	scheme := s.bb.Scheme()
	net := s.bb.Net()
	size := s.cfg.Header + len(msg.Groups)*s.cfg.GroupEntry
	for _, nb := range s.bb.LogicalNeighbors(from) {
		if scheme.CHIDToPlace(nb).HID != msg.HID {
			continue // MNT summaries stay within the hypercube
		}
		pkt := net.AcquirePacket()
		pkt.Kind = MNTKind
		pkt.Src, pkt.Dst = ch, s.bb.CHNodeOf(nb)
		pkt.Size, pkt.Control = size, true
		pkt.Born, pkt.UID = net.Sim().Now(), net.NextUID()
		pkt.Payload = msg
		s.bb.SendLogical(from, nb, pkt)
		net.ReleasePacket(pkt)
	}
}

func (s *Service) onMNT(n *network.Node, _ network.NodeID, pkt *network.Packet) {
	msg, ok := pkt.Payload.(*summaryMsg)
	if !ok {
		return
	}
	slot := s.bb.SlotOfNode(n.ID)
	if slot < 0 {
		return
	}
	st := s.slot(slot)
	idx := s.labelOf(msg.Origin)
	if st.seenMNT.get(idx, msg.Origin) >= msg.Seq {
		return // duplicate
	}
	st.seenMNT.set(idx, msg.Origin, msg.Seq)
	s.setMNT(st, msg.Origin, msg.Groups)
	s.floodMNT(slot, msg, n.ID) // continue the scoped flood
}

// HTSummary returns the slot's aggregation over its hypercube (Figure 5
// step 4's message body): each group's total member count in the
// hypercube.
func (s *Service) HTSummary(slot logicalid.CHID) []GroupCount {
	pairs := s.pairs[:0]
	s.slot(slot).mnt.each(func(_ logicalid.CHID, groups []GroupCount) {
		pairs = append(pairs, groups...)
	})
	s.pairs = pairs
	return sortedCounts(pairs)
}

// Designated reports whether the slot currently self-selects as its
// hypercube's HT broadcaster: the paper's criterion of the largest
// total membership over itself and its 1-logical-hop neighbor CHs,
// breaking ties by lowest CHID.
func (s *Service) Designated(slot logicalid.CHID) bool {
	scheme := s.bb.Scheme()
	st := s.slot(slot)
	myHID := st.hid
	if s.cfg.Designation == DesignateFixed {
		// Lowest occupied CHID of the hypercube always broadcasts.
		for _, vc := range scheme.BlockVCs(myHID) {
			c := logicalid.CHID(scheme.Grid().Index(vc))
			if s.bb.CHNodeOf(c) != network.NoNode {
				return c == slot
			}
		}
		return false
	}
	score := func(c logicalid.CHID) int {
		total := 0
		for _, e := range st.mnt.get(s.labelOf(c), c) {
			total += e.Count
		}
		if s.cfg.Designation == DesignateSelf {
			return total
		}
		for _, nb := range s.bb.LogicalNeighbors(c) {
			if scheme.CHIDToPlace(nb).HID != myHID {
				continue
			}
			for _, e := range st.mnt.get(s.labelOf(nb), nb) {
				total += e.Count
			}
		}
		return total
	}
	mine := score(slot)
	designated := true
	st.mnt.each(func(origin logicalid.CHID, _ []GroupCount) {
		if !designated || origin == slot || scheme.CHIDToPlace(origin).HID != myHID {
			return
		}
		if s.bb.CHNodeOf(origin) == network.NoNode {
			return
		}
		other := score(origin)
		if other > mine || (other == mine && origin < slot) {
			designated = false
		}
	})
	return designated
}

// HTRound is Figure 5 step 4: each CH summarizes its MNT view and, if
// designated, broadcasts the HT-Summary to all CHs in the network.
func (s *Service) HTRound() {
	scheme := s.bb.Scheme()
	for _, idx := range s.bb.Clusters().HeadSlots() {
		slot := logicalid.CHID(idx)
		ch := s.bb.CHNodeOf(slot)
		vc := scheme.Grid().FromIndex(int(slot))
		place := scheme.PlaceOf(vc)
		// Every CH folds its own hypercube into its MT view (step 5).
		summary := s.HTSummary(slot)
		s.recordMT(slot, place.HID, summary)
		if !s.Designated(slot) {
			continue
		}
		s.HTBroadcasts++
		s.seq++
		msg := &summaryMsg{Origin: slot, HID: place.HID, Seq: s.seq, Groups: summary}
		st := s.slot(slot)
		st.seenHT.set(int(place.HID), slot, msg.Seq)
		s.floodHT(slot, msg, ch)
	}
}

// floodHT forwards an HT summary network-wide over logical links.
func (s *Service) floodHT(from logicalid.CHID, msg *summaryMsg, ch network.NodeID) {
	net := s.bb.Net()
	size := s.cfg.Header + len(msg.Groups)*s.cfg.GroupEntry
	for _, nb := range s.bb.LogicalNeighbors(from) {
		pkt := net.AcquirePacket()
		pkt.Kind = HTKind
		pkt.Src, pkt.Dst = ch, s.bb.CHNodeOf(nb)
		pkt.Size, pkt.Control = size, true
		pkt.Born, pkt.UID = net.Sim().Now(), net.NextUID()
		pkt.Payload = msg
		s.bb.SendLogical(from, nb, pkt)
		net.ReleasePacket(pkt)
	}
}

func (s *Service) onHT(n *network.Node, _ network.NodeID, pkt *network.Packet) {
	msg, ok := pkt.Payload.(*summaryMsg)
	if !ok {
		return
	}
	slot := s.bb.SlotOfNode(n.ID)
	if slot < 0 {
		return
	}
	st := s.slot(slot)
	idx := int(msg.HID)
	if st.seenHT.get(idx, msg.Origin) >= msg.Seq {
		return
	}
	st.seenHT.set(idx, msg.Origin, msg.Seq)
	s.recordMT(slot, msg.HID, msg.Groups)
	s.floodHT(slot, msg, n.ID)
}

// recordMT merges an HT summary into a slot's MT view (Figure 5 step
// 5): bit hid of a group's row is set exactly when the summary carries
// the group, so a group that vanished from hid is cleared. Rows and
// summary are both sorted by group, so one merged walk covers them.
func (s *Service) recordMT(slot logicalid.CHID, hid logicalid.HID, groups []GroupCount) {
	st := s.slot(slot)
	w := s.mtWords
	// hid < NumHypercubes: a summary carries its origin's cube as the
	// scheme assigned it.
	word, bit := int(hid)>>6, uint64(1)<<uint(hid&63)
	changed := false
	for r := 0; r < len(st.mtGroups) || len(groups) > 0; r++ {
		if len(groups) > 0 && (r == len(st.mtGroups) || groups[0].Group < st.mtGroups[r]) {
			st.mtGroups = slices.Insert(st.mtGroups, r, groups[0].Group)
			st.mt = slices.Insert(st.mt, r*w, make([]uint64, w)...)
		}
		i := r*w + word
		old := st.mt[i]
		if len(groups) > 0 && groups[0].Group == st.mtGroups[r] {
			st.mt[i] |= bit
			groups = groups[1:]
		} else {
			st.mt[i] &^= bit
		}
		changed = changed || st.mt[i] != old
	}
	if changed {
		s.version++
	}
}

// MTSummaryHIDs returns the hypercubes the slot believes contain
// members of the group, in ascending HID order, or nil when there are
// none — Figure 6's routing input, the deterministic destination list
// handed to mesh-tier tree construction (greedy MulticastTree output
// depends on destination order).
func (s *Service) MTSummaryHIDs(slot logicalid.CHID, g Group) []logicalid.HID {
	st := s.slot(slot)
	r, ok := slices.BinarySearch(st.mtGroups, g)
	if !ok {
		return nil
	}
	w := s.mtWords
	var out []logicalid.HID
	for i, x := range st.mt[r*w : (r+1)*w] {
		for ; x != 0; x &= x - 1 {
			out = append(out, logicalid.HID(i*64+bits.TrailingZeros64(x)))
		}
	}
	return out
}

// CubeMembers returns the CH slots within the given slot's hypercube
// that, per this slot's collected MNT-Summaries, host members of the
// group — the destination set of the hypercube-tier multicast tree
// (Figure 6 step 4). The caller's own slot is included when it has
// local members.
func (s *Service) CubeMembers(slot logicalid.CHID, g Group) []logicalid.CHID {
	scheme := s.bb.Scheme()
	st := s.slot(slot)
	myHID := st.hid
	var out []logicalid.CHID
	st.mnt.each(func(origin logicalid.CHID, groups []GroupCount) {
		if scheme.CHIDToPlace(origin).HID != myHID {
			return
		}
		if countOf(groups, g) > 0 {
			out = append(out, origin)
		}
	})
	return network.SortedIDs(out)
}
