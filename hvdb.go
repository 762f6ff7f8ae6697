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
//	w.Start()                      // clustering + route + membership planes
//	w.WarmUp(15)                   // simulated seconds
//	uid := w.MC.Send(w.RandomSource(), 0, 512)
//	w.Sim.RunUntil(w.Sim.Now() + 5)
//	fmt.Println(w.MC.DeliveryCount(uid))
//	w.MC.ForgetPacket(uid)         // see below
//
// w.MC indexes every sent uid so that DeliveryCount and DeliveredTo can
// answer for it; that index is the only per-packet state the multicast
// plane keeps, and ForgetPacket is what releases an entry. A caller that
// sends many packets forgets each uid once it has read its result (the
// scenario script engine does so on its own); forgetting is safe while
// copies are still on the air, and after it both queries report nothing
// for the uid. Delivery observers (w.MC.OnDeliver) and the Sent and
// Delivered counters do not depend on the index.
//
// The same contract holds for every arm built with World.Protocol, HVDB
// or baseline: Protocol.Forget(uid) releases the arm's index entry
// (on the hvdb arm it is w.MC.ForgetPacket) and Protocol.Tracked()
// counts the sent uids not yet forgotten.
//
// The experiment harness that regenerates every figure of the paper and
// quantifies each of its claims is exposed through RunExperiment; see
// DESIGN.md for the experiment index and EXPERIMENTS.md for recorded
// results.
//
// Architecture (bottom-up; DESIGN.md expands every entry):
//
//	internal/des        discrete-event kernel (pooled event heap)
//	internal/geom       plane geometry
//	internal/xrand      deterministic PRNG
//	internal/stats      samples, confidence intervals, Jain index
//	internal/trace      category-tagged protocol event tracing
//	internal/mobility   random waypoint / walk / Gauss-Markov / group
//	internal/radio      unit-disc radio, delay and bandwidth model
//	internal/network    nodes, packets, incremental neighbor index
//	internal/gps        positioning service (oracle + noisy)
//	internal/vcgrid     virtual circles (paper §3, Fig. 2 geometry)
//	internal/cluster    mobility-prediction clustering ([23]; paper §3)
//	internal/hypercube  labels, e-cube routing, disjoint paths, trees
//	internal/logicalid  CHID/HNID/HID/MNID identifier algebra (§4.1)
//	internal/meshtier   incomplete 2-D mesh tier (§3)
//	internal/georoute   greedy + perimeter location-based unicast ([11])
//	internal/core       the HVDB backbone + Figure 4 route maintenance
//	internal/membership Figure 5 summary-based membership update
//	internal/multicast  Figure 6 logical location-based multicast
//	internal/qos        session admission over backbone routes
//	internal/baseline   flooding, DSM-, PBM-, SPBM-, CBT-like schemes
//	internal/protocol   uniform Stack interface + arm registry
//	internal/scenario   world construction, traffic, scenario scripts
//	internal/runner     parallel run harness (positional seeding)
//	internal/experiment figure/claim/scale/stress regeneration harness
//	internal/viz        ASCII backbone renderings (cmd/hvdbmap)
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

// NewQoS returns a session manager over the world's protocol stack.
func NewQoS(w *World) *QoSManager { return qos.NewManager(w.BB, w.MS, w.MC) }

// SessionID identifies an admitted QoS session.
type SessionID = qos.SessionID

// Protocol is the uniform surface of one multicast arm — HVDB or any of
// the compared baseline schemes. Build one by name with World.Protocol;
// see internal/protocol for the interface contract.
type Protocol = protocol.Stack

// ProtocolStats is the uniform counter snapshot of one arm.
type ProtocolStats = protocol.Stats

// Protocols lists the registered protocol arm names.
func Protocols() []string { return protocol.Names() }

// Script is a deterministic timetable of mid-run dynamics — node and
// membership churn, traffic generators, radio degradation, partitions —
// played against a world with World.RunScript.
type Script = scenario.Script

// Directive is one timed action of a Script.
type Directive = scenario.Directive

// ScriptResult reports the measured outcome of one script run.
type ScriptResult = scenario.ScriptResult

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
