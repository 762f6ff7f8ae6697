package baseline

import (
	"math"
	"sort"

	"repro/internal/des"
	"repro/internal/geom"
	"repro/internal/georoute"
	"repro/internal/network"
	"repro/internal/protocol"
)

// Packet kinds of the SPBM-like scheme.
const (
	SPBMUpdateKind = "spbm-update"
	SPBMDataKind   = "spbm-data"
	SPBMLocalKind  = "spbm-local"
)

// The SPBM-like scheme's quad tree and update timing: level-0 squares
// of spbmSquare0 meters, spbmLevels levels above level 0, level-l
// updates every spbmPeriod·2^l, spbmUpdateSize bytes per level-0 update.
const (
	spbmSquare0                 = 250.0
	spbmLevels                  = 3
	spbmPeriod     des.Duration = 2
	spbmUpdateSize              = 12
)

// SPBM approximates Scalable Position-Based Multicast [28]: membership
// is aggregated over a quad-tree of squares — "the further away a region
// is from an intermediate node, the higher the level of aggregation" —
// and data is forwarded geographically toward squares containing
// members. The paper's criticism, which the comparison quantifies, is
// that "all the nodes in the network are involved in the membership
// update".
//
// Control realization: every node broadcasts a level-0 membership update
// each spbmPeriod (all nodes are involved, as criticized); for each
// level l >= 1, the node nearest each occupied child-square center
// forwards an aggregate toward its level-l square center every
// spbmPeriod*2^l (real
// geo-routed packets). Aggregated membership consumed at send time comes
// from the oracle, matching the converged state.
type SPBM struct {
	arm
	geo *georoute.Router
}

// spbmHeader routes one copy toward a target level-0 square.
type spbmHeader struct {
	fl          *flight
	Square      geom.Point // center of the target level-0 square
	PayloadSize int
}

// NewSPBM attaches the protocol to the network's mux.
func NewSPBM(net *network.Network, mux *network.Mux) *SPBM {
	s := &SPBM{arm: newArm(net)}
	s.geo = georoute.Attach(net, mux)
	s.geo.Deliver(SPBMDataKind, func(n *network.Node, inner *network.Packet) {
		if hdr, ok := inner.Payload.(*spbmHeader); ok {
			s.deliverSquare(n, inner, hdr)
		}
	})
	s.geo.Deliver(SPBMUpdateKind, func(*network.Node, *network.Packet) {
		// Aggregation sink: contents feed the oracle view.
	})
	mux.Handle(SPBMLocalKind, s.onLocal)
	return s
}

// Name implements protocol.Stack.
func (s *SPBM) Name() string { return "spbm" }

// Start launches the per-level periodic membership updates.
func (s *SPBM) Start() {
	s.every(spbmPeriod, s.level0Round)
	for l := 1; l <= spbmLevels; l++ {
		l := l
		s.every(spbmPeriod*des.Duration(math.Pow(2, float64(l))), func() { s.levelRound(l) })
	}
}

// level0Round: every node broadcasts its membership update — the
// all-nodes-involved cost the paper criticizes.
func (s *SPBM) level0Round() {
	for _, n := range s.net.Nodes() {
		if !n.Up() {
			continue
		}
		pkt := &network.Packet{
			Kind: SPBMUpdateKind, Src: n.ID, Dst: network.NoNode,
			Size: spbmUpdateSize, Control: true, Born: s.net.Sim().Now(),
			UID: s.net.NextUID(),
		}
		s.net.Broadcast(n.ID, pkt)
	}
}

// squareCenter returns the center of the level-l square containing p.
func (s *SPBM) squareCenter(p geom.Point, level int) geom.Point {
	side := spbmSquare0 * math.Pow(2, float64(level))
	return geom.Pt(
		(math.Floor(p.X/side)+0.5)*side,
		(math.Floor(p.Y/side)+0.5)*side,
	)
}

// levelRound: for each occupied level-(l-1) square, its representative
// (node nearest the square center) geo-routes an aggregate toward the
// parent square center.
func (s *SPBM) levelRound(level int) {
	reps := make(map[geom.Point]network.NodeID)
	best := make(map[geom.Point]float64)
	for _, n := range s.net.Nodes() {
		if !n.Up() {
			continue
		}
		pos := n.TruePos()
		c := s.squareCenter(pos, level-1)
		d := pos.Dist(c)
		if cur, ok := best[c]; !ok || d < cur {
			best[c] = d
			reps[c] = n.ID
		}
	}
	// Transmit per square in coordinate order (map order must not feed
	// the representatives' loss streams).
	children := make([]geom.Point, 0, len(reps))
	for child := range reps {
		children = append(children, child)
	}
	sortPoints(children)
	for _, child := range children {
		rep := reps[child]
		parent := s.squareCenter(child, level)
		inner := &network.Packet{
			Kind: SPBMUpdateKind, Src: rep, Dst: network.NoNode,
			Size: spbmUpdateSize * 4, Control: true, Born: s.net.Sim().Now(),
			UID: s.net.NextUID(),
		}
		s.geo.Send(rep, parent, network.NoNode, inner)
	}
}

// Send implements protocol.Stack: one geo-routed copy per occupied level-0
// square; at the square, a local broadcast reaches the members.
func (s *SPBM) Send(src network.NodeID, g protocol.Group, payloadSize int) uint64 {
	uid, fl := s.begin(src, g)
	if uid == 0 {
		return 0
	}
	now := s.net.Sim().Now()
	squares := make(map[geom.Point]bool)
	for _, m := range s.members(g) {
		if m == src {
			continue
		}
		squares[s.squareCenter(s.net.Node(m).TruePos(), 0)] = true
	}
	targets := make([]geom.Point, 0, len(squares))
	for c := range squares {
		targets = append(targets, c)
	}
	sortPoints(targets)
	for _, c := range targets {
		hdr := &spbmHeader{fl: fl, Square: c, PayloadSize: payloadSize}
		inner := &network.Packet{
			Kind: SPBMDataKind, Src: src, Dst: network.NoNode, Group: int(g),
			Size: payloadSize + 8 + 16*len(squares), Born: now, UID: uid, Payload: hdr,
		}
		s.geo.Send(src, c, network.NoNode, inner)
	}
	return s.sent(uid)
}

// deliverSquare runs at the node where the geo-routed copy settled:
// local-broadcast into the square.
func (s *SPBM) deliverSquare(n *network.Node, inner *network.Packet, hdr *spbmHeader) {
	if s.isMember(n.ID, protocol.Group(inner.Group)) {
		s.record(hdr.fl, n.ID, inner.UID, inner.Born, inner.Hops)
	}
	pkt := &network.Packet{
		Kind: SPBMLocalKind, Src: n.ID, Dst: network.NoNode, Group: inner.Group,
		Size: hdr.PayloadSize + 8, Hops: inner.Hops, Born: inner.Born, UID: inner.UID, Payload: hdr.fl,
	}
	s.net.Broadcast(n.ID, pkt)
}

func (s *SPBM) onLocal(n *network.Node, _ network.NodeID, pkt *network.Packet) {
	if fl, ok := pkt.Payload.(*flight); ok && s.isMember(n.ID, protocol.Group(pkt.Group)) {
		s.record(fl, n.ID, pkt.UID, pkt.Born, pkt.Hops)
	}
}

// sortPoints orders square centers by (X, Y) so per-square
// transmissions happen in a deterministic sequence.
func sortPoints(ps []geom.Point) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].X != ps[j].X {
			return ps[i].X < ps[j].X
		}
		return ps[i].Y < ps[j].Y
	})
}
