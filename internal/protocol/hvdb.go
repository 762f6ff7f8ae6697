package protocol

import (
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/membership"
	"repro/internal/multicast"
	"repro/internal/network"
	"repro/internal/qos"
	"repro/internal/vcgrid"
)

// hvdbStack adapts the full HVDB protocol stack — clustering, backbone,
// membership, multicast, and the QoS admission plane — to the Stack
// interface.
type hvdbStack struct {
	cm  *cluster.Manager
	bb  *core.Backbone
	ms  *membership.Service
	mc  *multicast.Service
	qm  *qos.Manager
	on  DeliverFunc
	stx Stats
}

// NewHVDB builds the hvdb arm over a world's clustering, backbone,
// membership and multicast planes.
func NewHVDB(cm *cluster.Manager, bb *core.Backbone, ms *membership.Service, mc *multicast.Service) Stack {
	s := &hvdbStack{cm: cm, bb: bb, ms: ms, mc: mc, qm: qos.NewManager(bb, mc)}
	mc.OnDeliver(s.observe)
	// Cluster-head churn invalidates QoS reservations held on the old
	// heads: reconcile on every CH change so sessions release bandwidth
	// reserved on routes that no longer exist (instead of leaking it
	// until Close). The same event obsoletes every memoized multicast
	// tree (their topology version moved), so the route cache releases
	// them eagerly rather than waiting for key-by-key replacement.
	cm.OnChange(func(vcgrid.VC, network.NodeID, network.NodeID) {
		s.qm.Reconcile()
		bb.Trees().InvalidateAll()
	})
	return s
}

func (s *hvdbStack) Name() string { return "hvdb" }

// Start launches the periodic planes in dependency order: clustering,
// then backbone beacons, then membership summaries.
func (s *hvdbStack) Start() {
	s.cm.Start()
	s.bb.Start()
	s.ms.Start()
}

// Stop cancels the periodic planes.
func (s *hvdbStack) Stop() {
	s.cm.Stop()
	s.bb.Stop()
	s.ms.Stop()
}

// Join and Leave update the membership plane and eagerly release the
// group's memoized trees. (Correctness never needs the hook — a
// membership change reaches tree inputs only through summary rounds,
// which move the cache's version key — but the entries are dead weight
// the moment the group's population shifts.)
func (s *hvdbStack) Join(id network.NodeID, g Group) {
	s.ms.Join(id, g)
	s.bb.Trees().InvalidateGroup(int(g))
}

func (s *hvdbStack) Leave(id network.NodeID, g Group) {
	s.ms.Leave(id, g)
	s.bb.Trees().InvalidateGroup(int(g))
}

func (s *hvdbStack) Send(src network.NodeID, g Group, payloadSize int) uint64 {
	uid := s.mc.Send(src, g, payloadSize)
	if uid != 0 {
		s.stx.Sent++
	}
	return uid
}

func (s *hvdbStack) Deliveries(f DeliverFunc) { s.on = f }

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
