package scenario

import (
	"fmt"
	"math"

	"repro/internal/des"
	"repro/internal/membership"
	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/runner"
	"repro/internal/xrand"
)

// scriptSeedSalt decorrelates script randomness from the world's build
// and mobility streams: directive i of a run with world seed s draws
// from runner.DeriveSeed(s ^ scriptSeedSalt, i).
const scriptSeedSalt = 0x5c71b7e1a9d2f04d

// drainMargin is how long RunScript keeps the simulator running past
// the script's horizon so in-flight packets settle.
const drainMargin des.Duration = 5

// scriptRun is the live state of one script execution. Sends and
// membership changes go through the meter, which does the accounting.
type scriptRun struct {
	w *World
	m *Meter

	// Radio-loss window bookkeeping, shared across (possibly
	// overlapping) radio-loss directives: lossBase holds each node's
	// pre-script loss probability, captured when the first window
	// opens; lossActive lists the loss levels of the windows currently
	// open. Every open/close recomputes the effective per-node loss as
	// max(base, max(active)), so overlapping windows compose and the
	// final close restores the base values exactly.
	lossBase   []float64
	lossActive []float64
}

type churnVictim struct {
	id   network.NodeID
	tick int
}

// RunScript plays a script against this world through one protocol arm
// and returns what the run's Meter counted. The stack should be started
// and the world warmed up first; the counts cover the span from the
// call to the returned Elapsed.
//
// Determinism: every directive draws from its own positionally derived
// PRNG stream (runner.DeriveSeed over the world seed), so results are a
// pure function of (spec, script) regardless of how many sibling worlds
// run concurrently.
func (w *World) RunScript(stk protocol.Stack, sc *Script) (Counts, error) {
	if err := sc.Validate(); err != nil {
		return Counts{}, err
	}
	// Group references are checked against this world (static Validate
	// cannot know the group population): a typoed group would otherwise
	// run silently with a permanently empty audience.
	for i := range sc.Directives {
		d := &sc.Directives[i]
		if d.Kind != KindTraffic && d.Kind != KindMemberChurn {
			continue
		}
		if _, ok := w.Members[membership.Group(d.Group)]; !ok {
			return Counts{}, fmt.Errorf("scenario: script %q directive %d: group %d not in this world (have %d groups)",
				sc.Name, i, d.Group, len(w.Members))
		}
	}
	// The meter's release TTL is the drain: every send happens at or
	// before the script horizon (Directive.end bounds each generator),
	// so every audience entry has expired by the end of the drain.
	r := &scriptRun{w: w, m: w.Meter(stk, drainMargin)}
	start := w.Sim.Now()
	for i := range sc.Directives {
		d := sc.Directives[i]
		rng := xrand.New(runner.DeriveSeed(w.Spec.Seed^scriptSeedSalt, i))
		r.schedule(start, d, rng)
	}
	w.RunUntil(start + des.Duration(sc.Horizon()) + drainMargin)
	return r.m.Close(), nil
}

// schedule installs one directive's events on the simulator.
func (r *scriptRun) schedule(start des.Time, d Directive, rng *xrand.Rand) {
	at := start + des.Duration(d.At)
	switch d.Kind {
	case KindNodeChurn:
		r.scheduleNodeChurn(at, d, rng)
	case KindMemberChurn:
		r.scheduleMemberChurn(at, d, rng)
	case KindTraffic:
		r.scheduleTraffic(at, d, rng)
	case KindRadioLoss:
		r.scheduleRadioLoss(at, d)
	case KindPartition:
		r.schedulePartition(at, d)
	}
}

// pickOrdinary selects a random up ordinary node, or NoNode when none
// qualifies (every candidate is down or excluded).
func (r *scriptRun) pickOrdinary(rng *xrand.Rand, exclude map[network.NodeID]bool) network.NodeID {
	var candidates []network.NodeID
	for _, id := range r.w.Ordinary { // build order = ID order: deterministic
		if exclude[id] {
			continue
		}
		if n := r.w.Net.Node(id); n != nil && n.Up() {
			candidates = append(candidates, id)
		}
	}
	if len(candidates) == 0 {
		return network.NoNode
	}
	return candidates[rng.Pick(len(candidates))]
}

func (r *scriptRun) scheduleNodeChurn(at des.Time, d Directive, rng *xrand.Rand) {
	ticks := int(d.Duration / d.Period)
	tick := 0
	// The victim FIFO is private to this directive: overlapping
	// node-churn windows each manage (and heal) their own victims.
	var killed []churnVictim
	var fire func()
	fire = func() {
		// Revive victims killed two or more ticks ago, then fell fresh
		// ones, so the down population stays a rolling window.
		for len(killed) > 0 && killed[0].tick <= tick-2 {
			r.w.Net.Node(killed[0].id).Recover()
			killed = killed[1:]
		}
		for i := 0; i < d.Count; i++ {
			id := r.pickOrdinary(rng, nil)
			if id == network.NoNode {
				break
			}
			r.w.Net.Node(id).Fail()
			killed = append(killed, churnVictim{id, tick})
		}
		tick++
		if tick < ticks {
			r.w.Sim.After(des.Duration(d.Period), fire)
			return
		}
		// Window over: heal everything still down.
		r.w.Sim.After(des.Duration(d.Period), func() {
			for _, v := range killed {
				r.w.Net.Node(v.id).Recover()
			}
			killed = nil
		})
	}
	r.w.Sim.Schedule(at, fire)
}

func (r *scriptRun) scheduleMemberChurn(at des.Time, d Directive, rng *xrand.Rand) {
	g := membership.Group(d.Group)
	ticks := int(d.Duration / d.Period)
	tick := 0
	var fire func()
	fire = func() {
		for i := 0; i < d.Count; i++ {
			// Deterministic leaver: the lowest current member ID.
			leaver := network.NoNode
			for id := range r.m.Members(g) {
				if leaver == network.NoNode || id < leaver {
					leaver = id
				}
			}
			if leaver != network.NoNode {
				r.m.Leave(leaver, g)
			}
			if joiner := r.pickOrdinary(rng, r.m.Members(g)); joiner != network.NoNode {
				r.m.Join(joiner, g)
			}
		}
		tick++
		if tick < ticks {
			r.w.Sim.After(des.Duration(d.Period), fire)
		}
	}
	r.w.Sim.Schedule(at, fire)
}

func (r *scriptRun) scheduleTraffic(at des.Time, d Directive, rng *xrand.Rand) {
	g := membership.Group(d.Group)
	switch d.Pattern {
	case PatternFlash:
		// Count sources, staggered over the window's first half, each
		// sending its own burst.
		for i := 0; i < d.Count; i++ {
			offset := des.Duration(rng.Range(0, d.Duration/2))
			src := network.NoNode
			sent := 0
			var fire func()
			fire = func() {
				if src == network.NoNode {
					src = r.pickOrdinary(rng, nil)
					if src == network.NoNode {
						return
					}
				}
				r.m.Send(src, g, d.Payload)
				sent++
				if sent < d.Packets {
					r.w.Sim.After(des.Duration(d.Interval), fire)
				}
			}
			r.w.Sim.Schedule(at+offset, fire)
		}
	default:
		src := network.NoNode
		sent := 0
		deadline := at + des.Duration(d.Duration)
		phaseEnd := at + des.Duration(d.Period) // onoff only
		var fire func()
		fire = func() {
			if src == network.NoNode {
				src = r.pickOrdinary(rng, nil)
				if src == network.NoNode {
					return
				}
			}
			now := r.w.Sim.Now()
			if d.Duration > 0 && now > deadline {
				return // honored by every pattern, optional for cbr
			}
			if d.Pattern == PatternOnOff && now >= phaseEnd {
				// Skip off phases entirely; resume at the next on-phase
				// start that has not already passed (with interval >
				// period a send can overshoot several phases at once).
				resume := phaseEnd + des.Duration(d.Period)
				for resume < now {
					resume += 2 * des.Duration(d.Period)
				}
				phaseEnd = resume + des.Duration(d.Period)
				r.w.Sim.Schedule(resume, fire)
				return
			}
			r.m.Send(src, g, d.Payload)
			sent++
			if sent >= d.Packets {
				return
			}
			gap := des.Duration(d.Interval)
			if d.Pattern == PatternPoisson {
				gap = des.Duration(rng.ExpFloat64() * d.Interval)
			}
			r.w.Sim.After(gap, fire)
		}
		r.w.Sim.Schedule(at, fire)
	}
}

func (r *scriptRun) scheduleRadioLoss(at des.Time, d Directive) {
	r.w.Sim.Schedule(at, func() {
		if len(r.lossActive) == 0 {
			// First window to open: capture the pre-script base values.
			r.lossBase = make([]float64, r.w.Net.Len())
			for _, n := range r.w.Net.Nodes() {
				r.lossBase[n.ID] = n.Radio.LossProb
			}
		}
		r.lossActive = append(r.lossActive, d.Loss)
		r.applyLoss()
	})
	r.w.Sim.Schedule(at+des.Duration(d.Duration), func() {
		for i, l := range r.lossActive {
			if l == d.Loss {
				r.lossActive = append(r.lossActive[:i], r.lossActive[i+1:]...)
				break
			}
		}
		r.applyLoss()
	})
}

// applyLoss sets every node's loss probability to max(base, max of the
// open windows); with no window open the base values are restored
// exactly.
func (r *scriptRun) applyLoss() {
	peak := 0.0
	for _, l := range r.lossActive {
		peak = math.Max(peak, l)
	}
	for _, n := range r.w.Net.Nodes() {
		n.Radio.LossProb = math.Max(r.lossBase[n.ID], peak)
	}
}

func (r *scriptRun) schedulePartition(at des.Time, d Directive) {
	frac := d.Frac
	if frac == 0 {
		frac = 0.25
	}
	arena := r.w.Net.Arena()
	mid := (arena.Min.X + arena.Max.X) / 2
	half := arena.W() * frac / 2
	var failed []network.NodeID
	r.w.Sim.Schedule(at, func() {
		for _, n := range r.w.Net.Nodes() { // ID order: deterministic
			if !n.Up() {
				continue
			}
			if x := n.TruePos().X; x >= mid-half && x <= mid+half {
				n.Fail()
				failed = append(failed, n.ID)
			}
		}
	})
	r.w.Sim.Schedule(at+des.Duration(d.Duration), func() {
		for _, id := range failed {
			r.w.Net.Node(id).Recover() // no-op if churn already revived it
		}
		failed = nil
	})
}
