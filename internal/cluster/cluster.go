// Package cluster implements the mobile-node tier of the HVDB model: the
// mobility-prediction and location-based clustering of Sivavakeesar,
// Pavlou and Liotta [23] that the paper adopts. Nodes are grouped by the
// virtual circle they reside in; within each VC, a cluster head is
// elected by the paper's two criteria:
//
//  1. "it has the highest probability, in comparison to other MNs within
//     the same cluster, to stay for longer time within the cluster" —
//     realized as the longest predicted residence time from the node's
//     position and velocity;
//  2. "it has the minimum distance from the center of the cluster" —
//     the tie-break, with node ID as the final deterministic tie-break.
//
// Only CH-capable nodes are eligible, per the paper's heterogeneous
// capability assumption. Election runs periodically: every node
// broadcasts one cluster beacon (counted as control traffic), and the
// election within each VC is then evaluated from the beaconed fixes.
// The beacon exchange is collapsed to this single round rather than a
// multi-round distributed agreement; the message cost and the election
// outcome match [23], which is what the upper tiers consume.
package cluster

import (
	"math"
	"sort"

	"repro/internal/des"
	"repro/internal/geom"
	"repro/internal/gps"
	"repro/internal/network"
	"repro/internal/vcgrid"
)

// BeaconKind is the packet kind of the per-period cluster beacons.
const BeaconKind = "cluster-beacon"

// ResidenceCap is the prediction horizon in seconds: a stationary node
// predicts "forever", capped here to keep scores comparable.
const ResidenceCap = 3600.0

// ResidenceTime predicts how long a node with the given fix stays inside
// the circle, by intersecting its straight-line trajectory with the
// circle boundary. Nodes already outside return 0; (near-)stationary
// nodes return ResidenceCap.
func ResidenceTime(fix gps.Fix, c geom.Circle) float64 {
	rel := fix.Pos.Sub(c.C)
	distIn := c.R*c.R - rel.Dot(rel)
	if distIn < 0 {
		return 0
	}
	v2 := fix.Vel.Dot(fix.Vel)
	if v2 < 1e-12 {
		return ResidenceCap
	}
	// Solve |rel + v t|^2 = R^2 for the positive root.
	b := rel.Dot(fix.Vel)
	t := (-b + math.Sqrt(b*b+v2*distIn)) / v2
	if t > ResidenceCap {
		return ResidenceCap
	}
	return t
}

// Config parameterizes the clustering protocol.
type Config struct {
	// Period is the election/beacon interval in simulated seconds.
	Period des.Duration
	// BeaconSize is the on-air size of one cluster beacon in bytes.
	BeaconSize int
}

// DefaultConfig matches the 2005-era literature: 1 s beacons of ~32
// bytes (position + velocity + ID + flags).
func DefaultConfig() Config {
	return Config{Period: 1.0, BeaconSize: 32}
}

// ChangeFunc observes cluster-head changes in a VC: old or new may be
// network.NoNode when a VC gains its first CH or loses its only
// candidate.
type ChangeFunc func(vc vcgrid.VC, old, new network.NodeID)

// Manager runs clustering over one network.
type Manager struct {
	net  *network.Network
	grid *vcgrid.Grid
	cfg  Config

	// chBySlot is the CH of each VC by VC index (network.NoNode when
	// unheaded); heads lists the headed VC indices in ascending order.
	chBySlot []network.NodeID
	heads    []int
	vcByNode []vcgrid.VC
	isCH     []bool
	onChange []ChangeFunc

	elections uint64
	changes   uint64
	version   uint64
	ticker    *des.Ticker

	// Election scratch, reused across rounds: cand is indexed by VC
	// index, touched lists the VCs with a candidate, and nextBySlot
	// builds the new assignment, swapped with chBySlot once the round's
	// changes have been announced.
	cand       []candidate
	touched    []int
	nextBySlot []network.NodeID
}

// candidate is one CH-capable node's election entry within a VC.
type candidate struct {
	id    network.NodeID
	score float64 // residence time
	dist  float64 // to VCC
}

// NewManager returns a manager for the network over the grid. Call
// Start to begin periodic elections.
func NewManager(net *network.Network, grid *vcgrid.Grid, cfg Config) *Manager {
	if cfg.Period <= 0 {
		cfg = DefaultConfig()
	}
	m := &Manager{
		net:        net,
		grid:       grid,
		cfg:        cfg,
		chBySlot:   make([]network.NodeID, grid.Count()),
		nextBySlot: make([]network.NodeID, grid.Count()),
		vcByNode:   make([]vcgrid.VC, net.Len()),
		isCH:       make([]bool, net.Len()),
	}
	for i := range m.chBySlot {
		m.chBySlot[i], m.nextBySlot[i] = network.NoNode, network.NoNode
	}
	return m
}

// OnChange registers a cluster-head change observer.
func (m *Manager) OnChange(f ChangeFunc) { m.onChange = append(m.onChange, f) }

// Start runs an immediate election and schedules periodic re-elections.
func (m *Manager) Start() {
	m.Elect()
	m.ticker = m.net.Sim().Every(m.cfg.Period, m.cfg.Period, m.Elect)
}

// Stop cancels periodic elections.
func (m *Manager) Stop() {
	if m.ticker != nil {
		m.ticker.Stop()
	}
}

// Elect performs one beacon round plus election. It is exported so
// experiments can drive elections directly without the ticker.
func (m *Manager) Elect() {
	m.elections++
	// Nodes may have been added since construction; grow per-node state.
	if n := m.net.Len(); n > len(m.vcByNode) {
		m.vcByNode = append(m.vcByNode, make([]vcgrid.VC, n-len(m.vcByNode))...)
		m.isCH = append(m.isCH, make([]bool, n-len(m.isCH))...)
	}
	if n := m.grid.Count(); n > len(m.cand) {
		m.cand = make([]candidate, n)
		for i := range m.cand {
			m.cand[i].id = network.NoNode
		}
	}
	// Beacon round: every live node transmits one cluster beacon. The
	// broadcast is charged to the sender; reception needs no handler
	// (the election below consumes the same fixes the beacons carry), so
	// the packet is pooled and recycled after its last delivery.
	for _, n := range m.net.Nodes() {
		if !n.Up() {
			continue
		}
		pkt := m.net.AcquirePacket()
		pkt.Kind = BeaconKind
		pkt.Src, pkt.Dst = n.ID, network.NoNode
		pkt.Size, pkt.Control = m.cfg.BeaconSize, true
		pkt.UID = m.net.NextUID()
		m.net.Broadcast(n.ID, pkt)
		m.net.ReleasePacket(pkt)
	}

	// Bucket nodes by home VC and elect per VC. Winners accumulate in
	// the reused per-VC scratch; touched lists the VC indices to settle
	// and reset, keeping the round allocation-free.
	m.touched = m.touched[:0]
	for _, n := range m.net.Nodes() {
		if !n.Up() {
			continue
		}
		fix := n.Fix()
		vc := m.grid.VCOf(fix.Pos)
		m.vcByNode[n.ID] = vc
		if !n.CHCapable {
			continue
		}
		c := candidate{
			id:    n.ID,
			score: ResidenceTime(fix, m.grid.Circle(vc)),
			dist:  fix.Pos.Dist(m.grid.Center(vc)),
		}
		idx := m.grid.Index(vc)
		cur := &m.cand[idx]
		if cur.id == network.NoNode {
			m.touched = append(m.touched, idx)
			*cur = c
		} else if better(c.score, c.dist, int(c.id), cur.score, cur.dist, int(cur.id)) {
			*cur = c
		}
	}

	// Apply results in VC-index order (deterministic change
	// notifications): changed heads first, then lost ones. The new
	// assignment is built in nextBySlot, so observers still read the
	// old one through CHOf and HeadSlots while they are notified.
	changesBefore := m.changes
	sort.Ints(m.touched)
	for i := range m.isCH {
		m.isCH[i] = false
	}
	for _, idx := range m.touched {
		id := m.cand[idx].id
		m.cand[idx].id = network.NoNode // reset scratch for the next round
		m.nextBySlot[idx] = id
		m.isCH[id] = true
		if old := m.chBySlot[idx]; old != id {
			m.changes++
			m.notify(m.grid.FromIndex(idx), old, id)
		}
	}
	for _, idx := range m.heads {
		if m.nextBySlot[idx] == network.NoNode {
			m.changes++
			m.notify(m.grid.FromIndex(idx), m.chBySlot[idx], network.NoNode)
		}
	}
	// Swap the new assignment in and clear the old one's entries from
	// what becomes the scratch.
	for _, idx := range m.heads {
		m.chBySlot[idx] = network.NoNode
	}
	m.chBySlot, m.nextBySlot = m.nextBySlot, m.chBySlot
	m.heads, m.touched = m.touched, m.heads
	if m.changes != changesBefore {
		m.version++ // a new CH assignment took effect
	}
}

func better(s1, d1 float64, id1 int, s2, d2 float64, id2 int) bool {
	if s1 != s2 {
		return s1 > s2
	}
	if d1 != d2 {
		return d1 < d2
	}
	return id1 < id2
}

func (m *Manager) chOr(vc vcgrid.VC) network.NodeID {
	if !m.grid.Valid(vc) {
		return network.NoNode
	}
	return m.chBySlot[m.grid.Index(vc)]
}

func (m *Manager) notify(vc vcgrid.VC, old, new network.NodeID) {
	for _, f := range m.onChange {
		f(vc, old, new)
	}
}

// CHOf returns the current cluster head of the VC, or network.NoNode.
func (m *Manager) CHOf(vc vcgrid.VC) network.NodeID { return m.chOr(vc) }

// IsCH reports whether the node currently heads a cluster.
func (m *Manager) IsCH(id network.NodeID) bool {
	return int(id) >= 0 && int(id) < len(m.isCH) && m.isCH[id]
}

// VCOfNode returns the node's home VC as of the last election.
func (m *Manager) VCOfNode(id network.NodeID) vcgrid.VC {
	return m.vcByNode[id]
}

// HeadSlots returns the indices (vcgrid.Grid.Index) of the VCs that
// currently have a cluster head, in ascending order; CHOf names each
// head. The slice is shared and valid until the next election: callers
// must not modify or keep it.
func (m *Manager) HeadSlots() []int { return m.heads }

// Elections returns the number of election rounds run.
func (m *Manager) Elections() uint64 { return m.elections }

// Version is a monotonic counter that increments exactly when a new CH
// assignment takes effect (at the end of Elect, after the swap).
// Layers that derive state from CH occupancy — the backbone's logical
// neighbor cache — use it as their invalidation stamp.
func (m *Manager) Version() uint64 { return m.version }

// Changes returns the cumulative number of CH changes, the cluster
// stability metric of [23].
func (m *Manager) Changes() uint64 { return m.changes }
