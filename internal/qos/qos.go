// Package qos implements session admission over the HVDB, realizing the
// paper's QoS discussion (§2.3): a *hard* mode in the spirit of IntServ
// — a multicast session reserves bandwidth on every cluster head its
// trees cross, and is rejected (with rollback) if any reservation
// fails — and a *soft* mode in the spirit of DiffServ, which admits the
// session regardless and only reports how much of the demand the
// backbone could cover. The paper argues soft QoS suits highly dynamic
// MANETs better; the two modes make that trade-off measurable.
//
// Reservations are node-level (a CH's radio capacity), which models the
// TDMA-slot style reservation of the paper's reference [9] at the
// granularity the backbone operates on.
package qos

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/logicalid"
	"repro/internal/membership"
	"repro/internal/multicast"
	"repro/internal/network"
)

// Mode selects the admission discipline.
type Mode int

const (
	// Hard rejects a session unless every CH on its trees can reserve
	// the demanded rate (IntServ-like).
	Hard Mode = iota
	// Soft admits every session and reports coverage (DiffServ-like).
	Soft
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == Hard {
		return "hard"
	}
	return "soft"
}

// SessionID identifies an admitted session.
type SessionID int

// Session is one admitted QoS multicast session.
type Session struct {
	ID    SessionID
	Group membership.Group
	// Rate is the reserved bandwidth in bits/second.
	Rate float64
	// Mode is the admission discipline the session was opened under.
	Mode Mode
	// Reserved lists the CH nodes holding a reservation.
	Reserved []network.NodeID
	// Demanded counts the CHs the trees crossed; Coverage is
	// len(Reserved)/Demanded (1.0 under Hard).
	Demanded int
}

// Coverage returns the fraction of tree CHs holding a reservation.
func (s *Session) Coverage() float64 {
	if s.Demanded == 0 {
		return 1
	}
	return float64(len(s.Reserved)) / float64(s.Demanded)
}

// Manager admits and releases sessions over one backbone.
type Manager struct {
	bb *core.Backbone
	mc *multicast.Service

	next     SessionID
	sessions map[SessionID]*Session

	// Admitted and Rejected count admission outcomes.
	Admitted, Rejected uint64
}

// NewManager returns a session manager over the given stack.
func NewManager(bb *core.Backbone, mc *multicast.Service) *Manager {
	return &Manager{bb: bb, mc: mc, sessions: make(map[SessionID]*Session)}
}

// Open admits a session of the given rate from the source node to the
// group. Under Hard mode it either reserves on every tree CH or rejects
// with full rollback; under Soft it reserves wherever possible.
func (m *Manager) Open(src network.NodeID, g membership.Group, rate float64, mode Mode) (*Session, error) {
	grid := m.bb.Scheme().Grid()
	n := m.bb.Net().Node(src)
	if n == nil || !n.Up() {
		return nil, fmt.Errorf("qos: source %d unavailable", src)
	}
	vc := grid.VCOf(n.Fix().Pos)
	ch := m.bb.Clusters().CHOf(vc)
	if ch == network.NoNode {
		return nil, fmt.Errorf("qos: source %d has no cluster head", src)
	}
	srcSlot := logicalid.CHID(grid.Index(vc))
	chs := m.mc.TreeCHs(srcSlot, g)
	s := &Session{Group: g, Rate: rate, Mode: mode, Demanded: len(chs)}
	for _, id := range chs {
		node := m.bb.Net().Node(id)
		if node != nil && node.Up() && node.Capacity().Reserve(rate) {
			s.Reserved = append(s.Reserved, id)
			continue
		}
		if mode == Hard {
			m.release(s)
			m.Rejected++
			return nil, fmt.Errorf("qos: CH %d cannot reserve %.0f b/s", id, rate)
		}
	}
	m.next++
	s.ID = m.next
	m.sessions[s.ID] = s
	m.Admitted++
	return s, nil
}

// Close releases a session's reservations. Closing an unknown session
// is a no-op.
func (m *Manager) Close(id SessionID) {
	s, ok := m.sessions[id]
	if !ok {
		return
	}
	m.release(s)
	delete(m.sessions, id)
}

func (m *Manager) release(s *Session) {
	for _, id := range s.Reserved {
		if node := m.bb.Net().Node(id); node != nil {
			node.Capacity().Release(s.Rate)
		}
	}
	s.Reserved = nil
}

// Reconcile releases the reservations a session holds on CHs whose
// backbone role has died mid-session — nodes that failed, or that lost
// their cluster-head role to churn — so the reserved bandwidth returns
// to the pool instead of leaking on a route that no longer exists. Both
// hard and soft sessions are reconciled; a hard session that loses a
// reservation degrades to partial coverage rather than being torn down
// (the paper's soft-QoS argument: admission is a snapshot, dynamics
// erode it). It returns the number of reservations released.
func (m *Manager) Reconcile() int {
	ids := make([]SessionID, 0, len(m.sessions))
	for id := range m.sessions {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	released := 0
	for _, id := range ids {
		s := m.sessions[id]
		kept := s.Reserved[:0]
		for _, ch := range s.Reserved {
			node := m.bb.Net().Node(ch)
			if node != nil && node.Up() && m.bb.SlotOfNode(ch) >= 0 {
				kept = append(kept, ch)
				continue
			}
			if node != nil {
				node.Capacity().Release(s.Rate)
			}
			released++
		}
		s.Reserved = kept
	}
	return released
}

// Active returns the number of open sessions.
func (m *Manager) Active() int { return len(m.sessions) }

// Utilization reports the mean reserved fraction over the CH nodes
// currently heading clusters — the backbone's QoS load. The sum runs
// in slot order, so the reported mean's last ulp is a function of the
// assignment alone.
func (m *Manager) Utilization() float64 {
	total, count := 0.0, 0
	for _, idx := range m.bb.Clusters().HeadSlots() {
		if node := m.bb.Net().Node(m.bb.CHNodeOf(logicalid.CHID(idx))); node != nil {
			total += node.Capacity().Utilization()
			count++
		}
	}
	if count == 0 {
		return 0
	}
	return total / float64(count)
}
