// Package protocol is the one contract every multicast arm of the
// comparison meets — HVDB itself (NewHVDB) and the five baseline schemes
// of §2.2 (internal/baseline) all implement Stack, so experiments,
// commands and scenario scripts drive any arm the same way.
//
// scenario.World.Protocol builds an arm by name over an already-built
// world; building never transmits, so two arms can be compared on
// identically specced worlds without cross-contaminating their traffic
// accounting. Names lists the closed set of arms the paper compares.
package protocol

import (
	"repro/internal/des"
	"repro/internal/membership"
	"repro/internal/network"
	"repro/internal/qos"
)

// Group identifies a multicast group. All arms share the membership
// package's group value space.
type Group = membership.Group

// DeliverFunc observes one member delivery: the receiving member, the
// packet's UID, its birth time, and the hop count the arm reports
// (physical hops for flat schemes, logical hops for HVDB).
type DeliverFunc func(member network.NodeID, uid uint64, born des.Time, hops int)

// Stats is the uniform counter snapshot of one arm.
type Stats struct {
	// Sent counts successful Send calls (UID != 0); Delivered counts
	// distinct (packet, member) deliveries.
	Sent, Delivered uint64
	// QoSAdmitted and QoSRejected count session admissions on arms with
	// a QoS plane (zero elsewhere).
	QoSAdmitted, QoSRejected uint64
}

// Stack is the uniform surface of one multicast protocol arm.
type Stack interface {
	// Name returns the arm's name, one of Names.
	Name() string
	// Start and Stop control the arm's periodic control planes (no-ops
	// for stateless schemes such as flooding).
	Start()
	Stop()
	// Join and Leave maintain group membership.
	Join(id network.NodeID, g Group)
	Leave(id network.NodeID, g Group)
	// Send multicasts a payload of the given size from src to the group
	// and returns the packet UID, or 0 if the send could not start.
	Send(src network.NodeID, g Group, payloadSize int) uint64
	// Deliveries registers the delivery observer (nil clears it).
	Deliveries(f DeliverFunc)
	// Stats returns the arm's counter snapshot.
	Stats() Stats
}

// QoSCapable is implemented by stacks carrying a session-admission
// plane (currently only the hvdb arm).
type QoSCapable interface {
	// QoS returns the arm's session manager.
	QoS() *qos.Manager
}

// Names returns the arm names scenario.World.Protocol builds, sorted.
func Names() []string {
	return []string{"cbt", "dsm", "flooding", "hvdb", "pbm", "spbm"}
}
