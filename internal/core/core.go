// Package core assembles the paper's primary contribution: the logical
// Hypercube-based Virtual Dynamic Backbone (HVDB). It binds the mobile
// node tier (package cluster) to the hypercube tier (packages hypercube
// and logicalid) and the mesh tier (package meshtier), and runs the
// paper's Figure 4 algorithm — proactive local logical route
// maintenance — in which every CH periodically beacons its local
// logical route state (delay and bandwidth per route) to its
// 1-logical-hop neighbor CHs and accumulates QoS-annotated routes to
// every CH at most K logical hops away.
//
// # Logical links
//
// Per §4.1, a 1-logical-hop route "connects two CHs" and "does not rely
// on any other CH to route packets along the link". In the VC geometry
// this yields two kinds of logical links, both visible in the paper's
// Figure 3 and in its worked example for node 1000:
//
//   - grid links between CHs of edge-adjacent VCs (e.g. 1000-0010),
//     including the BCH-BCH links crossing hypercube borders, and
//   - hypercube links between CHs whose labels differ in one bit
//     (e.g. the "additional logical links" 1000-1100 and 1000-0000).
//
// A logical link is realized by location-based unicast (package
// georoute) through ordinary cluster members, which is exactly why it
// relies on no intermediate CH.
package core

import (
	"slices"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/georoute"
	"repro/internal/graph"
	"repro/internal/hypercube"
	"repro/internal/logicalid"
	"repro/internal/meshtier"
	"repro/internal/network"
	"repro/internal/route"
	"repro/internal/vcgrid"
)

// BeaconKind is the packet kind of Figure 4 route beacons.
const BeaconKind = "hvdb-beacon"

// Config parameterizes the backbone.
type Config struct {
	// K is the local route horizon in logical hops (the paper's k,
	// "e.g. k = 4").
	K int
	// BeaconPeriod is the Figure 4 beacon interval in simulated seconds.
	BeaconPeriod des.Duration
	// RouteTTL expires table entries not refreshed for this long.
	RouteTTL des.Duration
	// BeaconHeader and BeaconEntry size the on-air beacon in bytes.
	BeaconHeader, BeaconEntry int
}

// DefaultConfig mirrors the paper's running example: k = 4, with beacon
// cadence slower than cluster beacons (route state changes at CH-churn
// speed, not node-motion speed).
func DefaultConfig() Config {
	return Config{
		K:            4,
		BeaconPeriod: 2.0,
		RouteTTL:     6.5,
		BeaconHeader: 16,
		BeaconEntry:  12,
	}
}

// Route is one QoS-annotated logical route, as Routes and BestRoute
// return it.
type Route struct {
	Dest    logicalid.CHID
	NextHop logicalid.CHID
	// Hops is the logical hop count.
	Hops int
	// Delay is the accumulated measured one-way delay in seconds.
	Delay float64
	// Bandwidth is the bottleneck free bandwidth along the route in
	// bits/second.
	Bandwidth float64
	// Expires is the simulation time the entry goes stale.
	Expires des.Time
}

// beaconEntry is the wire form of one advertised route.
type beaconEntry struct {
	Dest      logicalid.CHID
	Hops      int
	Delay     float64
	Bandwidth float64
}

// beaconPayload is the wire form of a Figure 4 beacon.
type beaconPayload struct {
	FromSlot logicalid.CHID
	Sent     des.Time
	FreeBW   float64
	Entries  []beaconEntry
}

// maxRoutesPerDest bounds how many distinct-next-hop routes a slot
// keeps per destination; multiple routes are the paper's availability
// mechanism ("multiple candidate logical routes become available
// immediately").
const maxRoutesPerDest = 3

// tableRoute is a stored Route: the destination lives once in its
// destRoutes, and next hop and hops are narrowed to 32 bits, so an
// entry is 32 bytes.
type tableRoute struct {
	nextHop, hops    int32
	delay, bandwidth float64
	expires          des.Time
}

func (r *tableRoute) route(dest logicalid.CHID) Route {
	return Route{
		Dest: dest, NextHop: logicalid.CHID(r.nextHop), Hops: int(r.hops),
		Delay: r.delay, Bandwidth: r.bandwidth, Expires: r.expires,
	}
}

// destRoutes holds one destination's routes inline, best first by
// (hops, delay); routes[:n] are in use.
type destRoutes struct {
	dest, n int32
	routes  [maxRoutesPerDest]tableRoute
}

// routeTable holds the logical routes known at one CH slot (VC), one
// destRoutes per destination in ascending destination order. The table
// belongs to the slot rather than the node so that CH handover within a
// VC keeps the accumulated state, mirroring the paper's
// non-dynamic-backbone property.
type routeTable []destRoutes

// find returns the index of dest in the table, or where it would be
// inserted, and whether it is present.
func (t routeTable) find(dest logicalid.CHID) (int, bool) {
	lo, hi := 0, len(t)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if logicalid.CHID(t[m].dest) < dest {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(t) && logicalid.CHID(t[lo].dest) == dest
}

// Backbone is the HVDB instance over one network.
type Backbone struct {
	net    *network.Network
	cm     *cluster.Manager
	scheme *logicalid.Scheme
	geo    *georoute.Router
	cfg    Config

	tables []routeTable // by slot
	inner  *network.Mux // dispatch for logically-routed inner packets

	// nbrCache memoizes LogicalNeighbors per slot; entries are valid
	// while their stamp matches the cluster manager's Version (CH
	// occupancy only changes when an election applies).
	nbrCache []nbrCacheEntry

	// trees is the protocol-plane multicast-tree cache shared by the
	// data plane and the QoS admission path (see internal/route).
	trees route.Cache

	// entryArena is the round's shared beaconEntry backing array: one
	// allocation per round instead of one (plus growth) per slot. A
	// fresh arena is allocated each round because payloads reference
	// their sub-slices until every delivery has run; the previous
	// arena simply falls to the GC when its last payload does.
	entryArenaCap int

	ticker  *des.Ticker
	beacons uint64
}

type nbrCacheEntry struct {
	stamp uint64 // cm.Version()+1; 0 = never filled
	ids   []logicalid.CHID
}

// New assembles a backbone. The mux must already be bound to the
// network's nodes; the backbone installs the geo-routing layer and its
// beacon handling on it. Invalid configs fall back to DefaultConfig.
func New(net *network.Network, mux *network.Mux, cm *cluster.Manager, scheme *logicalid.Scheme, cfg Config) *Backbone {
	if cfg.K <= 0 || cfg.BeaconPeriod <= 0 {
		cfg = DefaultConfig()
	}
	b := &Backbone{
		net:    net,
		cm:     cm,
		scheme: scheme,
		cfg:    cfg,
		tables: make([]routeTable, scheme.Grid().Count()),
		inner:  network.NewMux(),
	}
	b.geo = georoute.Attach(net, mux)
	b.geo.DeliverFallback(func(n *network.Node, pkt *network.Packet) {
		b.inner.Dispatch(n, pkt.Src, pkt)
	})
	b.inner.Handle(BeaconKind, b.onBeacon)
	return b
}

// Geo exposes the location-based unicast layer (baselines reuse it).
func (b *Backbone) Geo() *georoute.Router { return b.geo }

// Scheme returns the logical identifier scheme.
func (b *Backbone) Scheme() *logicalid.Scheme { return b.scheme }

// Clusters returns the clustering manager.
func (b *Backbone) Clusters() *cluster.Manager { return b.cm }

// Net returns the underlying network.
func (b *Backbone) Net() *network.Network { return b.net }

// HandleInner registers an upper-layer consumer (membership summaries,
// multicast data) for logically-routed packets of the given kind.
func (b *Backbone) HandleInner(kind string, h network.Handler) {
	b.inner.Handle(kind, h)
}

// Start begins periodic Figure 4 beaconing.
func (b *Backbone) Start() {
	b.ticker = b.net.Sim().Every(b.cfg.BeaconPeriod, b.cfg.BeaconPeriod, b.BeaconRound)
}

// Stop cancels beaconing.
func (b *Backbone) Stop() {
	if b.ticker != nil {
		b.ticker.Stop()
	}
}

// CHNodeOf returns the node currently heading the VC of the given slot,
// or network.NoNode.
func (b *Backbone) CHNodeOf(slot logicalid.CHID) network.NodeID {
	return b.cm.CHOf(b.scheme.Grid().FromIndex(int(slot)))
}

// SlotOfNode returns the CH slot a node currently heads, or -1.
func (b *Backbone) SlotOfNode(id network.NodeID) logicalid.CHID {
	if !b.cm.IsCH(id) {
		return -1
	}
	return logicalid.CHID(b.scheme.Grid().Index(b.cm.VCOfNode(id)))
}

// Trees returns the backbone's shared multicast-tree cache.
func (b *Backbone) Trees() *route.Cache { return &b.trees }

// Cube materializes the current (possibly incomplete) logical hypercube
// h from the live CH set. The cube is freshly allocated and the caller
// may modify it.
func (b *Backbone) Cube(h logicalid.HID) *hypercube.Cube {
	c := hypercube.New(b.scheme.Dim())
	for _, vc := range b.scheme.BlockVCs(h) {
		if b.cm.CHOf(vc) != network.NoNode {
			c.Add(b.scheme.PlaceOf(vc).HNID)
		}
	}
	return c
}

// Mesh materializes the current mesh tier: a mesh node is actual "only
// when a logical hypercube exists in it", i.e. at least one CH in the
// block. The mesh is freshly allocated and the caller may modify it.
func (b *Backbone) Mesh() *meshtier.Mesh {
	cols, rows := b.scheme.MeshSize()
	m := meshtier.New(cols, rows)
	for h := 0; h < b.scheme.NumHypercubes(); h++ {
		for _, vc := range b.scheme.BlockVCs(logicalid.HID(h)) {
			if b.cm.CHOf(vc) != network.NoNode {
				m.Add(logicalid.HID(h))
				break
			}
		}
	}
	return m
}

// LogicalNeighbors returns the CH slots one logical hop from the given
// slot under the current CH set: grid-adjacent VCs with CHs (including
// across hypercube borders) plus same-block hypercube-label neighbors.
// Results are sorted, memoized per cluster topology version, and shared
// — callers must not modify the returned slice.
func (b *Backbone) LogicalNeighbors(slot logicalid.CHID) []logicalid.CHID {
	grid := b.scheme.Grid()
	if b.nbrCache == nil {
		b.nbrCache = make([]nbrCacheEntry, grid.Count())
	}
	e := &b.nbrCache[slot]
	stamp := b.cm.Version() + 1
	if e.stamp == stamp {
		return e.ids
	}
	vc := grid.FromIndex(int(slot))
	place := b.scheme.PlaceOf(vc)
	out := e.ids[:0]
	add := func(w vcgrid.VC) {
		if !grid.Valid(w) || b.cm.CHOf(w) == network.NoNode {
			return
		}
		s := logicalid.CHID(grid.Index(w))
		if s == slot {
			return
		}
		for _, have := range out {
			if have == s {
				return
			}
		}
		out = append(out, s)
	}
	for _, w := range grid.Adjacent(vc) {
		add(w)
	}
	for _, nb := range hypercube.AllNeighbors(place.HNID, b.scheme.Dim()) {
		add(b.scheme.VCAt(place.HID, nb))
	}
	out = network.SortedIDs(out)
	e.stamp = stamp
	e.ids = out
	return out
}

// SendLogical forwards an inner packet one logical hop from the CH of
// fromSlot to the CH of toSlot using location-based unicast through
// cluster members. It reports whether transmission started.
func (b *Backbone) SendLogical(fromSlot, toSlot logicalid.CHID, inner *network.Packet) bool {
	from := b.CHNodeOf(fromSlot)
	to := b.CHNodeOf(toSlot)
	if from == network.NoNode || to == network.NoNode {
		return false
	}
	target := b.scheme.Grid().Center(b.scheme.Grid().FromIndex(int(toSlot)))
	return b.geo.Send(from, target, to, inner)
}

// table returns the route table of a slot; nil for a slot outside the
// grid.
func (b *Backbone) table(slot logicalid.CHID) routeTable {
	if slot < 0 || int(slot) >= len(b.tables) {
		return nil
	}
	return b.tables[slot]
}

// BeaconRound performs one Figure 4 step 1 for every current CH: send
// the local logical route information to all 1-logical-hop neighbor
// CHs. Slots beacon in ascending order, so the round's event sequence
// is identical across reruns. Exported so experiments can drive rounds
// directly.
func (b *Backbone) BeaconRound() {
	now := b.net.Sim().Now()
	arena := make([]beaconEntry, 0, b.entryArenaCap)
	for _, idx := range b.cm.HeadSlots() {
		slot := logicalid.CHID(idx)
		ch := b.CHNodeOf(slot)
		var entries []beaconEntry
		entries, arena = b.exportEntries(slot, now, arena)
		free := 0.0
		if n := b.net.Node(ch); n != nil {
			free = n.Capacity().Free()
		}
		payload := &beaconPayload{FromSlot: slot, Sent: now, FreeBW: free, Entries: entries}
		size := b.cfg.BeaconHeader + len(entries)*b.cfg.BeaconEntry
		for _, nb := range b.LogicalNeighbors(slot) {
			inner := b.net.AcquirePacket()
			inner.Kind = BeaconKind
			inner.Src, inner.Dst = ch, b.CHNodeOf(nb)
			inner.Size, inner.Control, inner.Born = size, true, now
			inner.UID = b.net.NextUID()
			inner.Payload = payload
			if b.SendLogical(slot, nb, inner) {
				b.beacons++
			}
			b.net.ReleasePacket(inner)
		}
	}
	if cap(arena) > b.entryArenaCap {
		b.entryArenaCap = cap(arena)
	}
}

// exportEntries renders the advertisable routes of a slot — itself at
// hops 0, then in ascending destination order each destination's best
// live route if it has fewer than K hops (a neighbor would extend it by
// one) — appended to the round's shared arena. It
// returns the slot's sub-slice and the extended arena. Growing the
// arena mid-round is safe: earlier slots' sub-slices keep referencing
// the old backing array, which their payloads pin.
func (b *Backbone) exportEntries(slot logicalid.CHID, now des.Time, arena []beaconEntry) ([]beaconEntry, []beaconEntry) {
	start := len(arena)
	arena = append(arena, beaconEntry{Dest: slot, Hops: 0, Delay: 0, Bandwidth: 1e12})
	t := b.tables[slot]
	for i := range t {
		d := &t[i]
		for j := range d.routes[:d.n] {
			r := &d.routes[j]
			if r.expires < now {
				continue
			}
			// Routes are kept best first, so the first live one is
			// the best.
			if int(r.hops) < b.cfg.K {
				arena = append(arena, beaconEntry{
					Dest: logicalid.CHID(d.dest), Hops: int(r.hops), Delay: r.delay, Bandwidth: r.bandwidth,
				})
			}
			break
		}
	}
	return arena[start:len(arena):len(arena)], arena
}

// onBeacon is Figure 4 step 2: update local logical routes.
func (b *Backbone) onBeacon(n *network.Node, _ network.NodeID, pkt *network.Packet) {
	payload, ok := pkt.Payload.(*beaconPayload)
	if !ok {
		return
	}
	slot := b.SlotOfNode(n.ID)
	if slot < 0 {
		return // no longer a CH; the beacon outlived the role
	}
	now := b.net.Sim().Now()
	linkDelay := float64(now - payload.Sent)
	if linkDelay < 0 {
		linkDelay = 0
	}
	for _, e := range payload.Entries {
		if e.Dest == slot {
			continue
		}
		hops := e.Hops + 1
		if hops > b.cfg.K {
			continue
		}
		bw := payload.FreeBW
		if e.Bandwidth < bw {
			bw = e.Bandwidth
		}
		b.tables[slot].update(e.Dest, tableRoute{
			nextHop:   int32(payload.FromSlot),
			hops:      int32(hops),
			delay:     e.Delay + linkDelay,
			bandwidth: bw,
			expires:   now + b.cfg.RouteTTL,
		})
	}
}

// update inserts or refreshes a route to dest, keeping at most
// maxRoutesPerDest routes with distinct next hops, best first by
// (hops, delay). A route from a known next hop replaces that entry; a
// new next hop joins while there is room and otherwise displaces the
// worst entry only if it ranks strictly better. Ranking ignores expiry.
func (t *routeTable) update(dest logicalid.CHID, r tableRoute) {
	i, ok := t.find(dest)
	if !ok {
		*t = slices.Insert(*t, i, destRoutes{dest: int32(dest)})
	}
	d := &(*t)[i]
	for j := range d.routes[:d.n] {
		if d.routes[j].nextHop == r.nextHop {
			d.routes[j] = r
			sortRoutes(d.routes[:d.n])
			return
		}
	}
	switch {
	case d.n < maxRoutesPerDest:
		d.routes[d.n] = r
		d.n++
	case routeLess(&r, &d.routes[maxRoutesPerDest-1]):
		d.routes[maxRoutesPerDest-1] = r
	default:
		return
	}
	sortRoutes(d.routes[:d.n])
}

// sortRoutes insertion-sorts by (hops, delay); stable for equal keys.
func sortRoutes(routes []tableRoute) {
	for i := 1; i < len(routes); i++ {
		for j := i; j > 0 && routeLess(&routes[j], &routes[j-1]); j-- {
			routes[j], routes[j-1] = routes[j-1], routes[j]
		}
	}
}

func routeLess(a, b *tableRoute) bool {
	if a.hops != b.hops {
		return a.hops < b.hops
	}
	return a.delay < b.delay
}

// Routes returns the live routes from one slot to a destination slot,
// best first. The slice is freshly allocated.
func (b *Backbone) Routes(from, to logicalid.CHID) []Route {
	t := b.table(from)
	i, ok := t.find(to)
	if !ok {
		return nil
	}
	now := b.net.Sim().Now()
	var out []Route
	for _, r := range t[i].routes[:t[i].n] {
		if r.expires >= now {
			out = append(out, r.route(to))
		}
	}
	return out
}

// BestRoute returns the best live route satisfying the QoS constraints
// (minBW in bits/second, maxDelay in seconds; zero means unconstrained),
// or nil. This is the QoS selection the paper's availability argument
// relies on: when the current route breaks, the next candidate is
// already in the table.
func (b *Backbone) BestRoute(from, to logicalid.CHID, minBW, maxDelay float64) *Route {
	for _, r := range b.Routes(from, to) {
		if minBW > 0 && r.Bandwidth < minBW {
			continue
		}
		if maxDelay > 0 && r.Delay > maxDelay {
			continue
		}
		r := r
		return &r
	}
	return nil
}

// KnownDestinations returns how many distinct destinations have a live
// route from the slot — the convergence measure of Figure 4
// experiments.
func (b *Backbone) KnownDestinations(from logicalid.CHID) int {
	now := b.net.Sim().Now()
	count := 0
	t := b.table(from)
	for i := range t {
		for _, r := range t[i].routes[:t[i].n] {
			if r.expires >= now {
				count++
				break
			}
		}
	}
	return count
}

// Beacons returns the number of logical beacons sent so far.
func (b *Backbone) Beacons() uint64 { return b.beacons }

// LogicalReach returns the set of slots within at most k logical hops
// of the start slot in the *current* logical topology (ground truth by
// BFS, independent of route tables) — what a converged table should
// know. Used by tests and the Figure 4 experiment.
func (b *Backbone) LogicalReach(start logicalid.CHID, k int) map[logicalid.CHID]int {
	return graph.Reach(start, k, func(u logicalid.CHID, buf []logicalid.CHID) []logicalid.CHID {
		return append(buf, b.LogicalNeighbors(u)...)
	})
}
