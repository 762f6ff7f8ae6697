package baseline

import (
	"sort"

	"repro/internal/des"
	"repro/internal/geom"
	"repro/internal/georoute"
	"repro/internal/network"
)

// Packet kinds of the PBM-like scheme.
const (
	PBMReportKind  = "pbm-report"
	PBMDataKind    = "pbm-data"
	PBMRecoverKind = "pbm-recover"
)

// PBM approximates Position-Based Multicast [17]: the sender knows the
// positions of all group members (the sender-side knowledge the paper
// criticizes — "the location and group membership information is
// required at each sender"); forwarding nodes greedily split the
// destination list among neighbors that make progress, falling back to
// perimeter-mode unicast for destinations stuck at a void.
//
// The member-knowledge cost is charged as periodic network-wide floods
// of member position reports (one flood per member per Period); the
// positions used at forwarding time then come from the oracle.
type PBM struct {
	net *network.Network
	geo *georoute.Router
	ms  *membershipStore
	*deliveryLog

	Period     des.Duration
	ReportSize int

	ticker *des.Ticker
}

// pbmHeader carries the remaining destinations of one packet copy.
type pbmHeader struct {
	fl          *flight
	Dests       []network.NodeID
	Targets     []geom.Point // positions fixed at send time, per dest
	PayloadSize int
}

// NewPBM attaches the protocol to the network's mux. It installs its own
// geo-routing layer for stuck-destination recovery.
func NewPBM(net *network.Network, mux *network.Mux) *PBM {
	p := &PBM{
		net:         net,
		ms:          newMembershipStore(),
		deliveryLog: newDeliveryLog(net),
		Period:      2,
		ReportSize:  16,
	}
	p.geo = georoute.Attach(net, mux)
	p.geo.Deliver(PBMRecoverKind, func(n *network.Node, inner *network.Packet) {
		// Perimeter-recovered single-destination copy arrived.
		if fl, ok := inner.Payload.(*flight); ok && p.ms.isMember(n.ID, Group(inner.Group)) {
			p.record(fl, n.ID, inner.UID, inner.Born, inner.Hops)
		}
	})
	mux.Handle(PBMReportKind, rebroadcastFlood)
	mux.Handle(PBMDataKind, p.onData)
	return p
}

// Name implements Protocol.
func (p *PBM) Name() string { return "pbm" }

// Join implements Protocol.
func (p *PBM) Join(id network.NodeID, g Group) { p.ms.join(id, g) }

// Leave implements Protocol.
func (p *PBM) Leave(id network.NodeID, g Group) { p.ms.leave(id, g) }

// Start launches periodic member position-report floods.
func (p *PBM) Start() {
	p.ticker = p.net.Sim().Every(p.Period, p.Period, p.ReportRound)
}

// Stop implements Protocol.
func (p *PBM) Stop() {
	if p.ticker != nil {
		p.ticker.Stop()
	}
}

// ReportRound floods a position report from every group member.
func (p *PBM) ReportRound() {
	for _, id := range p.ms.sortedMembers() {
		n := p.net.Node(id)
		if n == nil || !n.Up() {
			continue
		}
		pkt := &network.Packet{
			Kind: PBMReportKind, Src: id, Dst: network.NoNode,
			Size: p.ReportSize, Control: true, Born: p.net.Sim().Now(), UID: p.net.NextUID(),
			Payload: new(flight).flood(p.net, id),
		}
		p.net.Broadcast(id, pkt)
	}
}

// Send implements Protocol.
func (p *PBM) Send(src network.NodeID, g Group, payloadSize int) uint64 {
	n := p.net.Node(src)
	if n == nil || !n.Up() {
		return 0
	}
	now := p.net.Sim().Now()
	uid := p.net.NextUID()
	hdr := &pbmHeader{fl: p.open(), PayloadSize: payloadSize}
	for _, m := range p.ms.members(p.net, g) {
		if m == src {
			p.record(hdr.fl, src, uid, now, 0)
			continue
		}
		hdr.Dests = append(hdr.Dests, m)
		hdr.Targets = append(hdr.Targets, p.net.Node(m).TruePos())
	}
	p.forward(src, src, g, uid, now, hdr)
	return uid
}

// forward makes one greedy splitting decision at node u; origin is the
// original source, preserved in Src for forwarding-load accounting.
func (p *PBM) forward(u, origin network.NodeID, g Group, uid uint64, born des.Time, hdr *pbmHeader) {
	pos := p.net.Node(u).TruePos()
	nbrs := p.net.Neighbors(u)
	// Partition destinations by best-progress neighbor.
	bySucc := make(map[network.NodeID]*pbmHeader)
	for i, dest := range hdr.Dests {
		target := hdr.Targets[i]
		if dest == u {
			continue
		}
		// Arrived next to the destination?
		best := network.NoNode
		bestD := pos.Dist(target)
		for _, nb := range nbrs {
			if nb == dest {
				best = nb
				break
			}
			if d := p.net.Node(nb).TruePos().Dist(target); d < bestD {
				best, bestD = nb, d
			}
		}
		if best == network.NoNode {
			// Stuck: recover with perimeter-mode unicast for this one
			// destination.
			inner := &network.Packet{
				Kind: PBMRecoverKind, Src: origin, Dst: dest, Group: int(g),
				Size: hdr.PayloadSize + 16, Born: born, UID: uid, Payload: hdr.fl,
			}
			p.geo.Send(u, target, dest, inner)
			continue
		}
		h := bySucc[best]
		if h == nil {
			h = &pbmHeader{fl: hdr.fl, PayloadSize: hdr.PayloadSize}
			bySucc[best] = h
		}
		h.Dests = append(h.Dests, dest)
		h.Targets = append(h.Targets, target)
	}
	// Transmit per successor in ID order (map order must not feed the
	// sender's loss stream).
	succs := make([]network.NodeID, 0, len(bySucc))
	for succ := range bySucc {
		succs = append(succs, succ)
	}
	sort.Slice(succs, func(i, j int) bool { return succs[i] < succs[j] })
	for _, succ := range succs {
		h := bySucc[succ]
		pkt := &network.Packet{
			Kind: PBMDataKind, Src: origin, Dst: succ, Group: int(g),
			Size: h.PayloadSize + 8 + 20*len(h.Dests), // per-dest position in header
			Born: born, UID: uid, Payload: h,
		}
		p.net.Unicast(u, succ, pkt)
	}
}

func (p *PBM) onData(n *network.Node, _ network.NodeID, pkt *network.Packet) {
	hdr, ok := pkt.Payload.(*pbmHeader)
	if !ok {
		return
	}
	g := Group(pkt.Group)
	if p.ms.isMember(n.ID, g) {
		for _, d := range hdr.Dests {
			if d == n.ID {
				p.record(hdr.fl, n.ID, pkt.UID, pkt.Born, pkt.Hops)
				break
			}
		}
	}
	p.forward(n.ID, pkt.Src, g, pkt.UID, pkt.Born, hdr)
}
