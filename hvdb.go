// Package hvdb is a reproduction of "A Novel QoS Multicast Model in
// Mobile Ad Hoc Networks" (Wang, Cao, Zhang, Chan, Wu — IPDPS 2005): the
// logical Hypercube-based Virtual Dynamic Backbone (HVDB) for QoS-aware
// multicast in large-scale MANETs, together with the discrete-event
// MANET simulator it is evaluated on and the related schemes it is
// compared against.
//
// This root package is the public facade. Typical use:
//
//	spec := hvdb.DefaultSpec()
//	spec.Nodes = 400
//	spec.Groups = 2
//	w, err := hvdb.Build(spec)
//	if err != nil { ... }
//	stk, err := w.Protocol("hvdb") // or flooding, dsm, pbm, spbm, cbt
//	if err != nil { ... }
//	stk.Start()                    // clustering + route + membership planes
//	w.WarmUp(15)                   // simulated seconds
//	m := w.Meter(stk, 5)           // 5 = the drain below, in seconds
//	m.Send(w.RandomSource(), 0, 512)
//	w.RunUntil(w.Sim.Now() + 5)
//	got := m.Close()
//	stk.Stop()
//	fmt.Println(got.Delivered, "of", got.Expected, "members reached")
//
// World.Protocol is the one way to a running stack, for HVDB and the
// baselines alike: it wires the arm's planes together (on hvdb, the
// cluster-head-change hook that reconciles QoS reservations and
// releases memoized trees) and counts what the arm sent and delivered.
// World.Meter is the one delivery meter: sends made through it are
// judged against the group as it stood when the packet left — the
// members current and up — and come back from Close as a Counts
// (deliveries, stale deliveries, delay, control overhead, fairness,
// drops by cause, events, CH changes and elections, all over the
// meter's own window). Group changes during a measurement go through
// Meter.Join and Meter.Leave so the audience stays right.
// World.RunScript is a client of the same meter and returns its Counts.
//
// An arm keeps no per-packet state: a send's record rides its copies
// and is collected with the last one.
//
// The experiment harness that regenerates every figure of the paper and
// quantifies each of its claims is exposed through RunExperiment; see
// DESIGN.md for the experiment index and EXPERIMENTS.md for recorded
// results.
//
// Architecture (bottom-up; DESIGN.md expands every entry):
//
//	internal/des        discrete-event kernel (ladder queue, pooled events; sharded variant)
//	internal/geom       plane geometry
//	internal/xrand      deterministic PRNG
//	internal/stats      samples, streaming log-spaced histogram, confidence intervals, Jain index
//	internal/gps        positioning service (oracle + noisy)
//	internal/mobility   random waypoint / walk / Gauss-Markov / group / Manhattan
//	internal/radio      unit-disc radio, delay and bandwidth model
//	internal/network    nodes, packets, incremental neighbor index
//	internal/vcgrid     virtual circles (paper §3, Fig. 2 geometry)
//	internal/cluster    mobility-prediction clustering ([23]; paper §3)
//	internal/graph      incomplete dense graphs (routes, trees, connectivity) and sparse BFS trees
//	internal/hypercube  labels, disjoint paths; the cube's bit-flip graph shape with e-cube routing
//	internal/logicalid  CHID/HNID/HID/MNID identifier algebra (§4.1)
//	internal/meshtier   incomplete 2-D mesh tier (§3); the mesh's graph shape
//	internal/georoute   greedy + perimeter location-based unicast ([11])
//	internal/route      the TTL tree memo + the version-keyed mesh-tree memo
//	internal/core       the HVDB backbone + Figure 4 route maintenance
//	internal/membership Figure 5 summary-based membership update
//	internal/multicast  Figure 6 logical location-based multicast
//	internal/qos        session admission over backbone routes
//	internal/protocol   the one arm contract (Stack) + the hvdb arm
//	internal/baseline   flooding, DSM-, PBM-, SPBM-, CBT-like schemes, each a protocol.Stack
//	internal/runner     parallel run harness (positional seeding)
//	internal/scenario   world construction by arm name, the delivery meter, scenario scripts
//	internal/experiment figure/claim/scale/stress regeneration harness
//	internal/scengen    generated-script invariant fuzzing (hvdbsim -fuzz)
//	internal/viz        ASCII backbone renderings (cmd/hvdbmap)
//	internal/cliflag    shared flag range checks and exit-2 usage for cmd/
//	internal/lint       determinism analyzers (cmd/hvdblint)
package hvdb

import (
	"io"

	"repro/internal/des"
	"repro/internal/experiment"
	"repro/internal/membership"
	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/qos"
	"repro/internal/scenario"
)

// Spec declares a simulation scenario; see scenario.Spec for the field
// documentation.
type Spec = scenario.Spec

// World is a fully wired simulation: network, clustering, backbone,
// membership, and multicast planes.
type World = scenario.World

// Group identifies a multicast group.
type Group = membership.Group

// NodeID identifies a node.
type NodeID = network.NodeID

// Time is simulated seconds.
type Time = des.Time

// MobilityKind selects a movement model in Spec.
type MobilityKind = scenario.MobilityKind

// Mobility models for Spec.Mobility.
const (
	Static      = scenario.Static
	Waypoint    = scenario.Waypoint
	Walk        = scenario.Walk
	GaussMarkov = scenario.GaussMarkov
	GroupMotion = scenario.GroupMotion
	Manhattan   = scenario.Manhattan
)

// DefaultSpec returns the paper's running example configuration: a
// 2000x2000 m arena of 8x8 virtual circles forming four 4-dimensional
// logical hypercubes, with anchor CHs and 200 mobile nodes.
func DefaultSpec() Spec { return scenario.DefaultSpec() }

// Build wires a world from a spec.
func Build(spec Spec) (*World, error) { return scenario.Build(spec) }

// QoSManager admits and releases bandwidth-reserving multicast sessions
// over a world's backbone (hard IntServ-like or soft DiffServ-like
// admission; see internal/qos).
type QoSManager = qos.Manager

// QoS admission modes.
const (
	HardQoS = qos.Hard
	SoftQoS = qos.Soft
)

// QoS returns the session manager of an arm built with World.Protocol
// — the one the arm reconciles when a cluster head changes — or nil for
// an arm without an admission plane (every arm but hvdb).
func QoS(p Protocol) *QoSManager {
	if q, ok := p.(protocol.QoSCapable); ok {
		return q.QoS()
	}
	return nil
}

// SessionID identifies an admitted QoS session.
type SessionID = qos.SessionID

// Protocol is the uniform surface of one multicast arm — HVDB or any of
// the compared baseline schemes. Build one by name with World.Protocol;
// see internal/protocol for the interface contract.
type Protocol = protocol.Stack

// ProtocolStats is the uniform counter snapshot of one arm.
type ProtocolStats = protocol.Stats

// Protocols lists the protocol arm names World.Protocol builds.
func Protocols() []string { return protocol.Names() }

// Script is a deterministic timetable of mid-run dynamics — node and
// membership churn, traffic generators, radio degradation, partitions —
// played against a world with World.RunScript.
type Script = scenario.Script

// Directive is one timed action of a Script.
type Directive = scenario.Directive

// Meter measures the traffic sent through it on one Protocol; build one
// with World.Meter. Counts is what its Close returns.
type (
	Meter  = scenario.Meter
	Counts = scenario.Counts
)

// ParseScript decodes and validates a JSON scenario script.
func ParseScript(data []byte) (*Script, error) { return scenario.ParseScript(data) }

// BuiltinScripts lists the built-in stress scenario names.
func BuiltinScripts() []string { return scenario.BuiltinScripts() }

// BuiltinScript returns a fresh copy of one built-in stress scenario.
func BuiltinScript(name string) (*Script, error) { return scenario.BuiltinScript(name) }

// ExperimentIDs lists the available experiments (f1..f6 regenerate the
// paper's figures; c1..c6 quantify its claims).
func ExperimentIDs() []string { return experiment.IDs() }

// ExperimentTitle describes one experiment.
func ExperimentTitle(id string) string { return experiment.Title(id) }

// ExperimentOptions sizes an experiment run. Its Workers field fans the
// experiment's independent runs across a worker pool (internal/runner);
// tables are byte-identical at every worker count for a given seed.
type ExperimentOptions = experiment.Options

// FullOptions runs experiments at the size recorded in EXPERIMENTS.md.
func FullOptions() ExperimentOptions { return experiment.DefaultOptions() }

// QuickOptions runs reduced experiments suitable for smoke tests.
func QuickOptions() ExperimentOptions { return experiment.QuickOptions() }

// RunExperiment executes one experiment and writes its tables to w.
func RunExperiment(w io.Writer, id string, o ExperimentOptions) error {
	tables, err := experiment.Run(id, o)
	if err != nil {
		return err
	}
	for _, t := range tables {
		if _, err := io.WriteString(w, t.String()+"\n"); err != nil {
			return err
		}
	}
	return nil
}
