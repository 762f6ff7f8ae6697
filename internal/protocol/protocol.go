// Package protocol unifies every multicast arm of the comparison —
// HVDB itself and the five baseline schemes of §2.2 — behind one Stack
// interface with a name-keyed registry, so experiments, commands, and
// scenario scripts select arms by name instead of wiring each scheme by
// hand.
//
// A Stack is built from the planes of an already-built scenario world
// (see Deps); building never transmits, so two arms can be compared on
// identically specced worlds without cross-contaminating their traffic
// accounting. Registration happens in this package's init functions,
// keeping the arm list closed over the schemes the paper compares.
package protocol

import (
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/membership"
	"repro/internal/multicast"
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
	// Name returns the registry name of the arm.
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

// Deps hands a Builder the planes of one built scenario world. Every
// arm needs Net and Mux; the hvdb arm additionally needs the CM/BB/MS/MC
// planes the world wired.
type Deps struct {
	Net *network.Network
	Mux *network.Mux
	CM  *cluster.Manager
	BB  *core.Backbone
	MS  *membership.Service
	MC  *multicast.Service
}

// Builder constructs one arm over a world's planes. Builders must not
// transmit: traffic starts at Start.
type Builder func(d Deps) (Stack, error)

// registry maps arm names to builders; populated by init functions.
var registry = map[string]Builder{}

// Register adds an arm under a unique name; duplicate registration is a
// programming error.
func Register(name string, b Builder) {
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("protocol: duplicate registration of %q", name))
	}
	registry[name] = b
}

// Names returns the registered arm names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Build constructs the named arm over the given planes.
func Build(name string, d Deps) (Stack, error) {
	b, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("protocol: unknown arm %q (have %v)", name, Names())
	}
	return b(d)
}
