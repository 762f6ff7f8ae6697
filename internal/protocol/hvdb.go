package protocol

import (
	"fmt"

	"repro/internal/des"
	"repro/internal/network"
	"repro/internal/qos"
	"repro/internal/vcgrid"
)

func init() {
	Register("hvdb", newHVDB)
}

// hvdbStack adapts the full HVDB protocol stack — clustering, backbone,
// membership, multicast, and the QoS admission plane — to the Stack
// interface.
type hvdbStack struct {
	d   Deps
	qm  *qos.Manager
	on  DeliverFunc
	stx Stats
}

func newHVDB(d Deps) (Stack, error) {
	if d.CM == nil || d.BB == nil || d.MS == nil || d.MC == nil {
		return nil, fmt.Errorf("protocol: hvdb arm needs the CM/BB/MS/MC planes wired")
	}
	s := &hvdbStack{d: d, qm: qos.NewManager(d.BB, d.MS, d.MC)}
	d.MC.OnDeliver(s.observe)
	// Cluster-head churn invalidates QoS reservations held on the old
	// heads: reconcile on every CH change so sessions release bandwidth
	// reserved on routes that no longer exist (instead of leaking it
	// until Close). The same event obsoletes every memoized multicast
	// tree (their topology version moved), so the route cache releases
	// them eagerly rather than waiting for key-by-key replacement.
	d.CM.OnChange(func(vcgrid.VC, network.NodeID, network.NodeID) {
		s.qm.Reconcile()
		d.BB.Trees().InvalidateAll()
	})
	return s, nil
}

func (s *hvdbStack) Name() string { return "hvdb" }

// Start launches the periodic planes in dependency order: clustering,
// then backbone beacons, then membership summaries.
func (s *hvdbStack) Start() {
	s.d.CM.Start()
	s.d.BB.Start()
	s.d.MS.Start()
}

// Stop cancels the periodic planes.
func (s *hvdbStack) Stop() {
	s.d.CM.Stop()
	s.d.BB.Stop()
	s.d.MS.Stop()
}

// Join and Leave update the membership plane and eagerly release the
// group's memoized trees. (Correctness never needs the hook — a
// membership change reaches tree inputs only through summary rounds,
// which move the cache's version key — but the entries are dead weight
// the moment the group's population shifts.)
func (s *hvdbStack) Join(id network.NodeID, g Group) {
	s.d.MS.Join(id, g)
	s.d.BB.Trees().InvalidateGroup(int(g))
}

func (s *hvdbStack) Leave(id network.NodeID, g Group) {
	s.d.MS.Leave(id, g)
	s.d.BB.Trees().InvalidateGroup(int(g))
}

func (s *hvdbStack) Send(src network.NodeID, g Group, payloadSize int) uint64 {
	uid := s.d.MC.Send(src, g, payloadSize)
	if uid != 0 {
		s.stx.Sent++
	}
	return uid
}

func (s *hvdbStack) Deliveries(f DeliverFunc) { s.on = f }
func (s *hvdbStack) Forget(uid uint64)        { s.d.MC.ForgetPacket(uid) }
func (s *hvdbStack) Tracked() int             { return s.d.MC.Flights() }

func (s *hvdbStack) observe(member network.NodeID, uid uint64, born des.Time, hops int) {
	s.stx.Delivered++
	if s.on != nil {
		s.on(member, uid, born, hops)
	}
}

func (s *hvdbStack) Stats() Stats {
	st := s.stx
	st.QoSAdmitted = s.qm.Admitted
	st.QoSRejected = s.qm.Rejected
	return st
}

// QoS implements QoSCapable: the session-admission plane over this
// arm's backbone.
func (s *hvdbStack) QoS() *qos.Manager { return s.qm }
