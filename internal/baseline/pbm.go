package baseline

import (
	"repro/internal/des"
	"repro/internal/geom"
	"repro/internal/georoute"
	"repro/internal/network"
	"repro/internal/protocol"
)

// Packet kinds of the PBM-like scheme.
const (
	PBMReportKind  = "pbm-report"
	PBMDataKind    = "pbm-data"
	PBMRecoverKind = "pbm-recover"
)

// The PBM-like scheme's report flood interval and report size in bytes.
const (
	pbmPeriod     des.Duration = 2
	pbmReportSize              = 16
)

// PBM approximates Position-Based Multicast [17]: the sender knows the
// positions of all group members (the sender-side knowledge the paper
// criticizes — "the location and group membership information is
// required at each sender"); forwarding nodes greedily split the
// destination list among neighbors that make progress, falling back to
// perimeter-mode unicast for destinations stuck at a void.
//
// The member-knowledge cost is charged as periodic network-wide floods
// of member position reports (one flood per member per pbmPeriod); the
// positions used at forwarding time then come from the oracle.
type PBM struct {
	arm
	geo *georoute.Router

	// Forwarding scratch, reused by every decision: the node's
	// neighbours with their positions, and the successors chosen, in
	// ID order. A decision never re-enters another (its transmissions
	// deliver later), so one set suffices.
	nbrs   []network.NodeID
	nbrPos []geom.Point
	succs  []pbmSucc
}

// pbmSucc is one successor of a splitting decision and the header of
// the copy it gets.
type pbmSucc struct {
	id network.NodeID
	h  *pbmHeader
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
	p := &PBM{arm: newArm(net)}
	p.geo = georoute.Attach(net, mux)
	p.geo.Deliver(PBMRecoverKind, func(n *network.Node, inner *network.Packet) {
		// Perimeter-recovered single-destination copy arrived.
		if fl, ok := inner.Payload.(*flight); ok && p.isMember(n.ID, protocol.Group(inner.Group)) {
			p.record(fl, n.ID, inner.UID, inner.Born, inner.Hops)
		}
	})
	mux.Handle(PBMReportKind, rebroadcastFlood)
	mux.Handle(PBMDataKind, p.onData)
	return p
}

// Name implements protocol.Stack.
func (p *PBM) Name() string { return "pbm" }

// Start launches periodic member position-report floods.
func (p *PBM) Start() { p.every(pbmPeriod, p.reportRound) }

// reportRound floods a position report from every group member.
func (p *PBM) reportRound() {
	for _, id := range p.sortedMembers() {
		if n := p.net.Node(id); n != nil && n.Up() {
			p.originateFlood(id, PBMReportKind, pbmReportSize)
		}
	}
}

// Send implements protocol.Stack.
func (p *PBM) Send(src network.NodeID, g protocol.Group, payloadSize int) uint64 {
	uid, fl := p.begin(src, g)
	if uid == 0 {
		return 0
	}
	hdr := &pbmHeader{fl: fl, PayloadSize: payloadSize}
	for _, m := range p.members(g) {
		if m != src {
			hdr.Dests = append(hdr.Dests, m)
			hdr.Targets = append(hdr.Targets, p.net.Node(m).TruePos())
		}
	}
	p.forward(src, src, g, uid, p.net.Sim().Now(), 0, hdr)
	return p.sent(uid)
}

// forward makes one greedy splitting decision at node u, which holds a
// copy hops transmissions from the source; origin is the original
// source, preserved in Src for forwarding-load accounting.
func (p *PBM) forward(u, origin network.NodeID, g protocol.Group, uid uint64, born des.Time, hops int, hdr *pbmHeader) {
	pos := p.net.Node(u).TruePos()
	p.nbrs, p.nbrPos = p.net.NeighborsPos(u, p.nbrs[:0], p.nbrPos[:0])
	// Partition destinations by best-progress neighbor.
	succs := p.succs[:0]
	for i, dest := range hdr.Dests {
		target := hdr.Targets[i]
		if dest == u {
			continue
		}
		// Arrived next to the destination?
		best := network.NoNode
		bestD := pos.Dist(target)
		for j, nb := range p.nbrs {
			if nb == dest {
				best = nb
				break
			}
			if d := p.nbrPos[j].Dist(target); d < bestD {
				best, bestD = nb, d
			}
		}
		if best == network.NoNode {
			// Stuck: recover with perimeter-mode unicast for this one
			// destination.
			inner := &network.Packet{
				Kind: PBMRecoverKind, Src: origin, Dst: dest, Group: int(g),
				Size: hdr.PayloadSize + 16, Hops: hops, Born: born, UID: uid, Payload: hdr.fl,
			}
			p.geo.Send(u, target, dest, inner)
			continue
		}
		// Successors stay in ID order (the transmission order below
		// feeds the sender's loss stream).
		k := 0
		for k < len(succs) && succs[k].id < best {
			k++
		}
		if k == len(succs) || succs[k].id != best {
			succs = append(succs, pbmSucc{})
			copy(succs[k+1:], succs[k:])
			succs[k] = pbmSucc{id: best, h: &pbmHeader{fl: hdr.fl, PayloadSize: hdr.PayloadSize}}
		}
		h := succs[k].h
		h.Dests = append(h.Dests, dest)
		h.Targets = append(h.Targets, target)
	}
	for _, s := range succs {
		pkt := &network.Packet{
			Kind: PBMDataKind, Src: origin, Dst: s.id, Group: int(g),
			Size: s.h.PayloadSize + 8 + 20*len(s.h.Dests), // per-dest position in header
			Hops: hops, Born: born, UID: uid, Payload: s.h,
		}
		p.net.Unicast(u, s.id, pkt)
	}
	clear(succs) // drop the header references until the next decision
	p.succs = succs
}

func (p *PBM) onData(n *network.Node, _ network.NodeID, pkt *network.Packet) {
	hdr, ok := pkt.Payload.(*pbmHeader)
	if !ok {
		return
	}
	g := protocol.Group(pkt.Group)
	if p.isMember(n.ID, g) {
		for _, d := range hdr.Dests {
			if d == n.ID {
				p.record(hdr.fl, n.ID, pkt.UID, pkt.Born, pkt.Hops)
				break
			}
		}
	}
	p.forward(n.ID, pkt.Src, g, pkt.UID, pkt.Born, pkt.Hops, hdr)
}
