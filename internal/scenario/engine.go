package scenario

import (
	"fmt"
	"math"

	"repro/internal/des"
	"repro/internal/membership"
	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// scriptSeedSalt decorrelates script randomness from the world's build
// and mobility streams: directive i of a run with world seed s draws
// from runner.DeriveSeed(s ^ scriptSeedSalt, i).
const scriptSeedSalt = 0x5c71b7e1a9d2f04d

// drainMargin is how long RunScript keeps the simulator running past
// the script's horizon so in-flight packets settle.
const drainMargin des.Duration = 5

// audienceTTL bounds how long a packet's send-time audience entry is
// retained: an entry is released once every audience member has been
// accounted for, or this long after the send — whichever comes first.
// Deliveries settle well inside the drain margin (that is what
// drainMargin exists for), so the TTL reuses it; since every send
// happens at or before the script horizon (Directive.end bounds each
// generator), every entry expires by the end of the drain and the
// audience map is empty at teardown. This keeps live audience state
// proportional to the send rate over one TTL window instead of the
// total packet count of the run.
const audienceTTL = drainMargin

// ScriptResult reports the measured outcome of one script run.
type ScriptResult struct {
	// Script is the script's name.
	Script string
	// Sent counts successful sends; Expected the audience-member
	// deliveries those sends could have produced (live current members
	// at each send); Delivered those that arrived; Stale deliveries to
	// nodes outside the packet's send-time audience (e.g. members that
	// had already left).
	Sent, Expected, Delivered, Stale int
	// MeanDelay, P50Delay, and P95Delay summarize end-to-end delivery
	// delay in seconds.
	MeanDelay, P50Delay, P95Delay float64
	// CtrlPerNodeS is control overhead in bytes/node/second over the
	// script window.
	CtrlPerNodeS float64
	// Jain is the forwarding-load fairness index over live nodes,
	// covering traffic since the last counter reset.
	Jain float64
	// Elapsed is the simulated span of the run including the drain.
	Elapsed des.Duration
	// AudiencePeak is the high-water mark of concurrently tracked
	// audience entries — the engine's retained per-packet state is
	// bounded by the send rate over one audienceTTL window, not by the
	// total packet count. AudienceOpen is how many entries were still
	// tracked at teardown; it is always 0 (entries are released when
	// fully accounted or on TTL expiry), mirroring the
	// PooledInFlight()==0 pool-leak check.
	AudiencePeak, AudienceOpen int
	// FlightsOpen is how many sent packets the arm still tracked at
	// teardown (protocol.Stack.Tracked). The engine forgets a packet
	// when its audience entry closes, so on a stack whose sends all went
	// through scripts this is always 0 as well, on every arm: per-packet
	// state does not outlive the script.
	FlightsOpen int
	// DelaySamples is how many deliveries the delay histogram absorbed
	// (always equal to Delivered), and DelayDigest its full-state
	// fingerprint — the scengen harness asserts both are rerun-,
	// worker-, and shard-count-invariant.
	DelaySamples int
	DelayDigest  uint64
}

// PDR returns Delivered / Expected.
func (r *ScriptResult) PDR() float64 {
	if r.Expected == 0 {
		return 0
	}
	return float64(r.Delivered) / float64(r.Expected)
}

// scriptRun is the live state of one script execution.
type scriptRun struct {
	w   *World
	stk protocol.Stack
	res ScriptResult

	// current mirrors the engine-driven membership per group; audience
	// snapshots the live current members of each sent packet. Entries
	// are released when fully accounted or on TTL expiry (audienceTTL);
	// audQ[audHead:] is the pending-expiry FIFO in send order, so expiry
	// is a deterministic O(1) front pop (send times are nondecreasing).
	current  map[membership.Group]map[network.NodeID]bool
	audience map[uint64]*audEntry
	audQ     []audPending
	audHead  int
	// delays streams into a log-spaced histogram at delivery time: the
	// engine retains O(1) metric state per run, not one float64 per
	// delivery. Mean stays exact; P50/P95 carry the histogram's bounded
	// relative error (stats.LogHist.Percentile).
	delays stats.LogHist

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

// audEntry is the retained state of one in-flight script packet: the
// members still owed a delivery. The member bit clears as each delivery
// is counted, so len(members)==0 means fully accounted.
type audEntry struct {
	members map[network.NodeID]bool
}

// audPending queues one packet for TTL expiry.
type audPending struct {
	uid    uint64
	expire des.Time
}

type churnVictim struct {
	id   network.NodeID
	tick int
}

// RunScript plays a script against this world through one protocol arm
// and returns the measured outcome. The stack should be started and the
// world warmed up first; traffic counters measured by the result cover
// the span from the call to the returned Elapsed.
//
// Determinism: every directive draws from its own positionally derived
// PRNG stream (runner.DeriveSeed over the world seed), so results are a
// pure function of (spec, script) regardless of how many sibling worlds
// run concurrently.
func (w *World) RunScript(stk protocol.Stack, sc *Script) (*ScriptResult, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
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
			return nil, fmt.Errorf("scenario: script %q directive %d: group %d not in this world (have %d groups)",
				sc.Name, i, d.Group, len(w.Members))
		}
	}
	r := &scriptRun{
		w:        w,
		stk:      stk,
		res:      ScriptResult{Script: sc.Name},
		current:  make(map[membership.Group]map[network.NodeID]bool),
		audience: make(map[uint64]*audEntry),
	}
	for g, members := range w.Members {
		set := make(map[network.NodeID]bool, len(members))
		for _, id := range members {
			set[id] = true
		}
		r.current[g] = set
	}
	stk.Deliveries(r.onDeliver)

	start := w.Sim.Now()
	ctrl0 := w.Net.Stats().ControlBytes
	for i := range sc.Directives {
		d := sc.Directives[i]
		rng := xrand.New(runner.DeriveSeed(w.Spec.Seed^scriptSeedSalt, i))
		r.schedule(start, d, rng)
	}
	w.RunUntil(start + des.Duration(sc.Horizon()) + drainMargin)
	stk.Deliveries(nil)

	// Every send happened at or before the horizon, so every surviving
	// entry has expired by now; the sweep leaves the map empty unless
	// the release bookkeeping has a leak — which AudienceOpen reports,
	// mirroring the pooled-packet teardown check.
	r.expireAudience(w.Sim.Now())
	r.res.AudienceOpen = len(r.audience)
	r.res.FlightsOpen = stk.Tracked()

	r.res.Elapsed = w.Sim.Now() - start
	if n := w.Net.Len(); n > 0 && r.res.Elapsed > 0 {
		r.res.CtrlPerNodeS = float64(w.Net.Stats().ControlBytes-ctrl0) / float64(n) / float64(r.res.Elapsed)
	}
	r.res.Jain = stats.JainIndex(w.Net.ForwardLoads())
	r.res.MeanDelay = r.delays.Mean()
	r.res.P50Delay = r.delays.Percentile(50)
	r.res.P95Delay = r.delays.Percentile(95)
	r.res.DelaySamples = r.delays.N()
	r.res.DelayDigest = r.delays.Fingerprint()
	return &r.res, nil
}

// onDeliver classifies one delivery against the packet's send-time
// audience and releases the entry once every member is accounted for.
func (r *scriptRun) onDeliver(member network.NodeID, uid uint64, born des.Time, _ int) {
	e, ok := r.audience[uid]
	if !ok {
		return // not a script packet (or already released)
	}
	if e.members[member] {
		r.res.Delivered++
		r.delays.Add(float64(r.w.Sim.Now() - born))
		delete(e.members, member)
		if len(e.members) == 0 {
			r.closeAudience(uid) // fully accounted
		}
	} else {
		r.res.Stale++
	}
}

// closeAudience releases a packet's audience entry and, with it, the
// uid the arm indexes for delivery queries (a no-op for an entry
// already closed). Copies still on the air are unaffected: they carry
// their duplicate suppression.
func (r *scriptRun) closeAudience(uid uint64) {
	delete(r.audience, uid)
	r.stk.Forget(uid)
}

// send originates one script packet and snapshots its audience: the
// current members of the group that are up right now.
func (r *scriptRun) send(src network.NodeID, g membership.Group, payload int) {
	now := r.w.Sim.Now()
	r.expireAudience(now)
	uid := r.stk.Send(src, g, payload)
	if uid == 0 {
		return // source down or unreachable: nothing on the air
	}
	r.res.Sent++
	aud := make(map[network.NodeID]bool)
	for id := range r.current[g] {
		if n := r.w.Net.Node(id); n != nil && n.Up() {
			aud[id] = true
		}
	}
	r.audience[uid] = &audEntry{members: aud}
	r.audQ = append(r.audQ, audPending{uid: uid, expire: now + audienceTTL})
	if open := len(r.audience); open > r.res.AudiencePeak {
		r.res.AudiencePeak = open
	}
	r.res.Expected += len(aud)
}

// expireAudience releases audience entries whose TTL has passed. Sends
// happen at nondecreasing times, so the pending queue is scanned from
// the front only; entries already released as fully accounted make the
// delete a no-op. The spent queue prefix is compacted once it dominates
// the backing array, keeping the queue itself bounded by the live
// window too.
func (r *scriptRun) expireAudience(now des.Time) {
	for r.audHead < len(r.audQ) && r.audQ[r.audHead].expire <= now {
		r.closeAudience(r.audQ[r.audHead].uid)
		r.audHead++
	}
	if r.audHead > 64 && r.audHead*2 >= len(r.audQ) {
		n := copy(r.audQ, r.audQ[r.audHead:])
		r.audQ = r.audQ[:n]
		r.audHead = 0
	}
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
			for id := range r.current[g] {
				if leaver == network.NoNode || id < leaver {
					leaver = id
				}
			}
			if leaver != network.NoNode {
				r.stk.Leave(leaver, g)
				delete(r.current[g], leaver)
			}
			// RunScript validated the group, so r.current[g] exists.
			if joiner := r.pickOrdinary(rng, r.current[g]); joiner != network.NoNode {
				r.stk.Join(joiner, g)
				r.current[g][joiner] = true
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
				r.send(src, g, d.Payload)
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
			r.send(src, g, d.Payload)
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
		// A partition strip takes down backbone population wholesale:
		// release the memoized multicast trees eagerly (eviction only —
		// the version keys already exclude them from reuse).
		r.w.BB.Trees().InvalidateAll()
	})
	r.w.Sim.Schedule(at+des.Duration(d.Duration), func() {
		for _, id := range failed {
			r.w.Net.Node(id).Recover() // no-op if churn already revived it
		}
		failed = nil
		r.w.BB.Trees().InvalidateAll() // heal: same eager release
	})
}
