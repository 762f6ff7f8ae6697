// Package scenario assembles complete simulation setups: arena, node
// population (heterogeneous capability per the paper's assumption),
// mobility, the full HVDB protocol stack, group membership, traffic
// generation, and failure injection. Experiments and examples build
// worlds from a Spec instead of wiring packages by hand, select
// protocol arms by name through World.Protocol (internal/protocol),
// and drive mid-run dynamics — churn bursts, traffic generators, radio
// degradation, partitions — through the scripted scenario engine
// (Script, World.RunScript).
package scenario

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/geom"
	"repro/internal/georoute"
	"repro/internal/gps"
	"repro/internal/hypercube"
	"repro/internal/logicalid"
	"repro/internal/membership"
	"repro/internal/mobility"
	"repro/internal/multicast"
	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/radio"
	"repro/internal/vcgrid"
	"repro/internal/xrand"
)

// MobilityKind selects the movement model of the ordinary nodes.
type MobilityKind string

// Supported mobility models.
const (
	Static      MobilityKind = "static"
	Waypoint    MobilityKind = "waypoint"
	Walk        MobilityKind = "walk"
	GaussMarkov MobilityKind = "gauss-markov"
	GroupMotion MobilityKind = "group"
	Manhattan   MobilityKind = "manhattan"
)

// Spec declares one scenario.
type Spec struct {
	Seed uint64
	// ArenaSize is the square arena side in meters; CellSize the VC
	// tile side; Dim the hypercube dimension.
	ArenaSize, CellSize float64
	Dim                 int
	// Nodes is the number of ordinary mobile nodes (on top of anchors).
	Nodes int
	// AnchorCHs places one static CH-capable node at every VCC — the
	// paper's strong-capability backbone population (tanks, vehicles).
	// Without anchors, a fraction CHCapableFrac of ordinary nodes is
	// CH-capable.
	AnchorCHs     bool
	CHCapableFrac float64
	// Mobility parameters for ordinary nodes.
	Mobility           MobilityKind
	MinSpeed, MaxSpeed float64
	Pause              float64
	// Groups and MembersPerGroup define multicast membership, assigned
	// to random ordinary nodes.
	Groups          int
	MembersPerGroup int
	// LossProb sets per-transmission loss on ordinary radios.
	LossProb float64
	// GPSError adds zero-mean Gaussian positioning error (meters std
	// dev per axis) to every node's receiver; 0 keeps the paper's
	// oracle-GPS assumption.
	GPSError float64
	// Shards > 1 runs the world on the sharded event kernel: the arena
	// is partitioned into Shards spatial stripes and confined relay
	// deliveries execute on per-shard worker lanes under conservative
	// lookahead windows (des.Sharded). Results are bit-identical at any
	// shard count; 0 and 1 mean the plain serial kernel. When the world
	// cannot hold the sharding contract (e.g. tracing enabled), Build
	// falls back to serial and records the reason in World.ShardNote.
	Shards int
}

// DefaultSpec is the Figure 2 configuration with a modest mobile
// population.
func DefaultSpec() Spec {
	return Spec{
		Seed:            1,
		ArenaSize:       2000,
		CellSize:        250,
		Dim:             4,
		Nodes:           200,
		AnchorCHs:       true,
		CHCapableFrac:   0.2,
		Mobility:        Waypoint,
		MinSpeed:        1,
		MaxSpeed:        5,
		Pause:           10,
		Groups:          1,
		MembersPerGroup: 10,
	}
}

// World-size ceilings: twice the population and twice the grid side of
// the largest world this repository has built (the scale sweep's 1M
// point, 1,003,136 nodes on a 56x56 VC grid). Past them a spec is a
// mistyped flag or script field, not a world.
const (
	MaxNodes     = 2_000_000 // Spec.Nodes, and Groups x MembersPerGroup
	MaxGridCells = 112 * 112 // VCs: ceil(ArenaSize/CellSize) squared
)

// Validate reports why Build would refuse the spec, or nil, reading
// only the spec: a command can exit with usage before any allocation.
func (s Spec) Validate() error {
	// Negated comparisons so that NaN fails closed too.
	if !(s.ArenaSize > 0) || !(s.CellSize > 0) {
		return fmt.Errorf("scenario: arena side %v m and cell side %v m must be positive", s.ArenaSize, s.CellSize)
	}
	if side := math.Ceil(s.ArenaSize / s.CellSize); !(side*side <= MaxGridCells) {
		return fmt.Errorf("scenario: arena %v m over cell %v m is a %gx%g VC grid, above the %d-cell ceiling",
			s.ArenaSize, s.CellSize, side, side, MaxGridCells)
	}
	if !(s.MinSpeed >= 0 && s.MinSpeed <= math.MaxFloat64) || !(s.MaxSpeed >= 0 && s.MaxSpeed <= math.MaxFloat64) {
		return fmt.Errorf("scenario: node speeds %v and %v m/s must be finite and non-negative", s.MinSpeed, s.MaxSpeed)
	}
	if s.Dim < 1 || s.Dim > hypercube.MaxDim {
		return fmt.Errorf("scenario: hypercube dimension %d out of range [1,%d]", s.Dim, hypercube.MaxDim)
	}
	// Each factor is bounded before the product, so it cannot overflow.
	if s.Nodes > MaxNodes || s.Groups > MaxNodes || s.MembersPerGroup > MaxNodes || s.Groups*s.MembersPerGroup > MaxNodes {
		return fmt.Errorf("scenario: %d nodes, %d groups x %d members: above the ceiling of %d nodes or memberships",
			s.Nodes, s.Groups, s.MembersPerGroup, MaxNodes)
	}
	return nil
}

// World is a fully wired simulation.
type World struct {
	Spec   Spec
	Sim    *des.Simulator
	Net    *network.Network
	Mux    *network.Mux
	Grid   *vcgrid.Grid
	Scheme *logicalid.Scheme
	CM     *cluster.Manager
	BB     *core.Backbone
	MS     *membership.Service
	MC     *multicast.Service

	// Eng is the sharded event kernel, non-nil when Spec.Shards > 1 and
	// sharding engaged; drive the world through World.RunUntil so lane
	// events execute. ShardNote records why sharding was declined when
	// it was requested but could not engage (the world then runs
	// serially, with identical results).
	Eng       *des.Sharded
	ShardNote string

	Rng *xrand.Rand
	// Members lists the member nodes of each group.
	Members map[membership.Group][]network.NodeID
	// Ordinary lists the non-anchor nodes (traffic sources are drawn
	// from these).
	Ordinary []network.NodeID
	// Anchors lists the anchor CH nodes (empty without AnchorCHs).
	Anchors []network.NodeID

	// group is the shared mover of GroupMotion scenarios, lazily built.
	group *mobility.Group
}

// Build wires a world from the spec, or returns Spec.Validate's error
// before allocating anything.
func Build(spec Spec) (*World, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	w := &World{Spec: spec, Members: make(map[membership.Group][]network.NodeID)}
	w.Sim = des.New()
	w.Rng = xrand.New(spec.Seed)
	arena := geom.RectWH(0, 0, spec.ArenaSize, spec.ArenaSize)
	w.Net = network.New(w.Sim, arena, w.Rng.Split())
	w.Grid = vcgrid.New(arena, spec.CellSize)

	// One-hop clusters by construction (DESIGN.md "Model premises"): local
	// delivery is one CH broadcast, so a VC wider than the default CH
	// disc gets both radio classes scaled by the smallest factor that
	// puts the whole VC inside it. Cells up to 350·√2 ≈ 495 m keep the
	// defaults bit-exactly.
	chRadio := radio.DefaultCH
	mnRadio := radio.DefaultMN
	if r := w.Grid.Radius(); r > chRadio.Range {
		mnRadio.Range *= r / chRadio.Range
		chRadio.Range = r
	}
	mnRadio.LossProb = spec.LossProb

	receiver := func() gps.Receiver {
		if spec.GPSError <= 0 {
			return nil // network defaults to the oracle
		}
		return gps.NewNoisy(spec.GPSError, 0, w.Rng.Split())
	}
	if spec.AnchorCHs {
		for i := 0; i < w.Grid.Count(); i++ {
			n := w.Net.AddNode(&mobility.Static{P: w.Grid.Center(w.Grid.FromIndex(i))}, chRadio, receiver(), true)
			w.Anchors = append(w.Anchors, n.ID)
		}
	}
	for i := 0; i < spec.Nodes; i++ {
		capable := !spec.AnchorCHs && w.Rng.Bool(spec.CHCapableFrac)
		rm := mnRadio
		if capable {
			rm = chRadio
		}
		n := w.Net.AddNode(w.buildMobility(arena), rm, receiver(), capable)
		w.Ordinary = append(w.Ordinary, n.ID)
	}

	w.Mux = network.Bind(w.Net)
	w.CM = cluster.NewManager(w.Net, w.Grid, cluster.DefaultConfig())
	var err error
	w.Scheme, err = logicalid.New(w.Grid, spec.Dim)
	if err != nil {
		return nil, err
	}
	w.BB = core.New(w.Net, w.Mux, w.CM, w.Scheme, core.DefaultConfig())
	w.MS = membership.New(w.BB, membership.DefaultConfig())
	w.MC = multicast.New(w.BB, w.MS, w.Mux, multicast.DefaultConfig())

	// Group membership over ordinary nodes (members move; that is the
	// point of the protocol).
	pool := append([]network.NodeID(nil), w.Ordinary...)
	if len(pool) == 0 {
		pool = append(pool, w.Anchors...)
	}
	for g := 0; g < spec.Groups; g++ {
		perm := w.Rng.Perm(len(pool))
		count := spec.MembersPerGroup
		if count > len(pool) {
			count = len(pool)
		}
		for i := 0; i < count; i++ {
			id := pool[perm[i]]
			w.MS.Join(id, membership.Group(g))
			w.Members[membership.Group(g)] = append(w.Members[membership.Group(g)], id)
		}
	}
	w.CM.Elect()
	w.enableSharding()
	return w, nil
}

// enableSharding engages the sharded kernel when the spec asks for it.
// It runs after the whole stack is wired: every node (and hence the
// radio grain, which becomes the conservative lookahead) is known, and
// the georoute router is already listening for OnShard. Failure to
// engage is not an error — the serial kernel produces identical
// results — so it only leaves a note.
func (w *World) enableSharding() {
	if w.Spec.Shards <= 1 {
		return
	}
	g := w.Net.Grain()
	if g <= 0 {
		w.ShardNote = "no radio delay quantum to derive a lookahead from"
		return
	}
	eng := des.NewSharded(w.Sim, w.Spec.Shards, des.Duration(g))
	if err := w.Net.EnableSharding(eng, georoute.KindPrefix); err != nil {
		w.ShardNote = err.Error()
		return
	}
	w.Eng = eng
}

// RunUntil advances the world to simulated time t: through the sharded
// engine when one is engaged (so shard-lane events execute), else the
// plain simulator. All world-level drivers (WarmUp, RunScript, the
// experiment harness) go through here.
func (w *World) RunUntil(t des.Time) {
	if w.Eng != nil {
		w.Eng.RunUntil(t)
		return
	}
	w.Sim.RunUntil(t)
}

func (w *World) buildMobility(arena geom.Rect) mobility.Model {
	s := w.Spec
	switch s.Mobility {
	case Waypoint:
		return mobility.NewWaypoint(arena, s.MinSpeed, s.MaxSpeed, s.Pause, w.Rng.Split())
	case Walk:
		return mobility.NewWalk(arena, s.MaxSpeed, 10, w.Rng.Split())
	case GaussMarkov:
		return mobility.NewGaussMarkov(arena, s.MaxSpeed, 0.85, 1, w.Rng.Split())
	case Manhattan:
		return mobility.NewManhattan(arena, w.Spec.CellSize, s.MaxSpeed, w.Rng.Split())
	case GroupMotion:
		if w.group == nil {
			w.group = mobility.NewGroup(arena, s.MinSpeed, s.MaxSpeed, s.Pause, w.Rng.Split())
		}
		offset := geom.Vec(w.Rng.Range(-60, 60), w.Rng.Range(-60, 60))
		return w.group.Member(offset, 10, w.Rng.Split())
	default:
		return &mobility.Static{P: geom.Pt(w.Rng.Range(arena.Min.X, arena.Max.X), w.Rng.Range(arena.Min.Y, arena.Max.Y))}
	}
}

// WarmUp runs the stack for d simulated seconds and then clears traffic
// counters, so measurements start from a converged state.
func (w *World) WarmUp(d des.Duration) {
	w.RunUntil(w.Sim.Now() + d)
	w.Net.ResetTraffic()
}

// CBR schedules constant-bit-rate multicast traffic: the provided send
// function (a Meter.Send closure) fires every interval, count times.
func (w *World) CBR(send func() uint64, interval des.Duration, count int) {
	var i int
	var tick func()
	tick = func() {
		if i >= count {
			return
		}
		i++
		send()
		w.Sim.After(interval, tick)
	}
	w.Sim.After(0, tick)
}

// FailRandomAnchors takes down the given number of anchor CH nodes,
// returning the failed IDs.
func (w *World) FailRandomAnchors(count int) []network.NodeID {
	perm := w.Rng.Perm(len(w.Anchors))
	var out []network.NodeID
	for i := 0; i < count && i < len(w.Anchors); i++ {
		id := w.Anchors[perm[i]]
		w.Net.Node(id).Fail()
		out = append(out, id)
	}
	return out
}

// Protocol builds the named protocol arm (one of protocol.Names) on
// this world and enrolls the world's preassigned group members.
// Building never transmits; call Start on the returned stack to launch
// its control planes.
func (w *World) Protocol(name string) (protocol.Stack, error) {
	var stk protocol.Stack
	switch name {
	case "hvdb":
		stk = protocol.NewHVDB(w.CM, w.BB, w.MS, w.MC)
	case "flooding":
		stk = baseline.NewFlooding(w.Net, w.Mux)
	case "dsm":
		stk = baseline.NewDSM(w.Net, w.Mux)
	case "pbm":
		stk = baseline.NewPBM(w.Net, w.Mux)
	case "spbm":
		stk = baseline.NewSPBM(w.Net, w.Mux)
	case "cbt":
		stk = baseline.NewCBT(w.Net, w.Mux)
	default:
		return nil, fmt.Errorf("scenario: unknown protocol arm %q (have %v)", name, protocol.Names())
	}
	// Enroll members in (group, assignment) order — deterministic, and
	// idempotent for the hvdb arm (the world already joined them).
	for _, g := range w.Groups() {
		for _, id := range w.Members[g] {
			stk.Join(id, g)
		}
	}
	return stk, nil
}

// Groups returns the world's group IDs in ascending order.
func (w *World) Groups() []membership.Group {
	out := make([]membership.Group, 0, len(w.Members))
	for g := range w.Members {
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// RandomSource picks an ordinary node to originate traffic.
func (w *World) RandomSource() network.NodeID {
	if len(w.Ordinary) == 0 {
		return w.Anchors[w.Rng.Pick(len(w.Anchors))]
	}
	return w.Ordinary[w.Rng.Pick(len(w.Ordinary))]
}
