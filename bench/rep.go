package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"time"

	"repro/internal/des"
	"repro/internal/membership"
	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/stats"
)

// cellResult is what one world run yields: host time per phase, the
// host-side counters over the traffic phase, and the simulated outcome.
type cellResult struct {
	buildS, startS, warmS float64 // the three parts of phase setup
	trafficS              float64
	events, eventsTotal   uint64 // Sim.Executed over traffic / over the whole cell
	mallocs               uint64 // runtime Mallocs delta over traffic

	sent, expected, delivered, stale int
	p50, p95, ctrl, jain             float64 // seconds, seconds, B/node/s, index
	delayDigest                      uint64
	audiencePeak                     int
}

func (c *cellResult) setupS() float64 { return c.buildS + c.startS + c.warmS }

// probe lets the memory rep and the traced rep look inside a cell. A
// nil probe is a timed rep: no hook runs.
type probe struct {
	// begin opens a span and returns the call that closes it.
	begin func(name, label string) func()
	// second runs once per simulated second on the world's own clock.
	second func(w *scenario.World)
	// warmed runs at the end of warm-up, before the traffic counters
	// are reset; done runs after teardown, while the world is intact.
	warmed func(w *scenario.World)
	done   func(c *cell, w *scenario.World, stk protocol.Stack, r *cellResult)
}

func nop() {}

func (p *probe) span(name, label string) func() {
	if p == nil || p.begin == nil {
		return nop
	}
	return p.begin(name, label)
}

// runCell builds one world, warms it, plays its traffic, tears it down
// and checks the teardown invariants.
func runCell(c *cell, seed uint64, shards int, p *probe) (cellResult, error) {
	var r cellResult
	spec := c.spec
	spec.Seed, spec.Shards = seed, shards
	defer p.span("cell", c.label)()

	t0 := time.Now()
	end := p.span("scenario.Build", "")
	w, err := scenario.Build(spec)
	end()
	if err != nil {
		return r, err
	}
	if shards > 1 && w.Eng == nil {
		return r, fmt.Errorf("%s: world declined shards=%d: %s", c.label, shards, w.ShardNote)
	}
	var tick *des.Ticker
	if p != nil && p.second != nil {
		tick = w.Sim.Every(1, 1, func() { p.second(w) })
	}
	t1 := time.Now()
	end = p.span("protocol.Start", "")
	stk, err := w.Protocol(c.arm)
	if err != nil {
		return r, err
	}
	stk.Start()
	end()
	t2 := time.Now()
	end = p.span("scenario.warm", "")
	w.RunUntil(w.Sim.Now() + c.warm)
	end()
	if p != nil && p.warmed != nil {
		p.warmed(w)
	}
	w.Net.ResetTraffic()
	t3 := time.Now()
	r.buildS, r.startS, r.warmS = t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), t3.Sub(t2).Seconds()

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	e0 := w.Sim.Executed()
	t4 := time.Now()
	end = p.span("scenario.traffic", "")
	if c.script != nil {
		err = r.playScript(w, stk, c.script)
	} else {
		r.playCBR(w, stk, c.cbr)
	}
	stk.Stop()
	end()
	r.trafficS = time.Since(t4).Seconds()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return r, fmt.Errorf("%s: %w", c.label, err)
	}
	r.eventsTotal = w.Sim.Executed()
	r.events = r.eventsTotal - e0
	r.mallocs = m1.Mallocs - m0.Mallocs

	// Teardown, untimed: let in-flight deliveries and stopped tickers
	// run out, then the pools must balance.
	if tick != nil {
		tick.Stop()
	}
	w.RunUntil(w.Sim.Now() + 5)
	w.Sim.Run()
	if n := w.Net.PooledInFlight(); n != 0 {
		return r, fmt.Errorf("%s: %d pooled packets still checked out at teardown", c.label, n)
	}
	if p != nil && p.done != nil {
		p.done(c, w, stk, &r)
	}
	return r, nil
}

func (r *cellResult) playScript(w *scenario.World, stk protocol.Stack, sc *scenario.Script) error {
	res, err := w.RunScript(stk, sc)
	if err != nil {
		return err
	}
	if res.AudienceOpen != 0 {
		return fmt.Errorf("%d audience entries still tracked at teardown", res.AudienceOpen)
	}
	r.sent, r.expected, r.delivered, r.stale = res.Sent, res.Expected, res.Delivered, res.Stale
	r.p50, r.p95, r.ctrl, r.jain = res.P50Delay, res.P95Delay, res.CtrlPerNodeS, res.Jain
	r.delayDigest, r.audiencePeak = res.DelayDigest, res.AudiencePeak
	return nil
}

// playCBR is the scale sweep's traffic phase (experiment.runScaleWorld)
// driven from outside: same source draw, same schedule, same drain, so
// the event sequence is the recorded one.
func (r *cellResult) playCBR(w *scenario.World, stk protocol.Stack, l *cbrLoad) {
	var delays stats.LogHist
	stk.Deliveries(func(_ network.NodeID, _ uint64, born des.Time, _ int) {
		r.delivered++
		delays.Add(float64(w.Sim.Now() - born))
	})
	start := w.Sim.Now()
	ctrl0 := w.Net.Stats().ControlBytes
	src := w.RandomSource()
	g := membership.Group(0)
	w.CBR(func() uint64 {
		uid := stk.Send(src, g, l.payload)
		if uid != 0 {
			r.sent++
			r.expected += len(w.Members[g])
		}
		return uid
	}, l.gap, l.packets)
	w.RunUntil(start + l.gap*des.Duration(l.packets) + l.drain)
	stk.Deliveries(nil)
	elapsed := float64(w.Sim.Now() - start)
	r.ctrl = float64(w.Net.Stats().ControlBytes-ctrl0) / float64(w.Net.Len()) / elapsed
	r.jain = stats.JainIndex(w.Net.ForwardLoads())
	r.p50, r.p95 = delays.Percentile(50), delays.Percentile(95)
	r.delayDigest = delays.Fingerprint()
}

// repResult folds the cells of one rep into the workload's numbers.
type repResult struct {
	setupS, wallS   float64
	events, mallocs uint64
	eventsTotal     uint64

	sent, expected, delivered, stale int
	p50ms, p95ms, ctrl, jain         float64
	// digest hashes sent/expected/delivered/stale/events/DelayDigest
	// per cell: the exact-repeat witness. outcome leaves the event
	// counts out, for reps whose per-second hook adds ticker events.
	digest, outcome uint64
	audiencePeak    int
	cells           []cellResult
}

func (r *repResult) pdr() float64 {
	if r.expected == 0 {
		return 0
	}
	return float64(r.delivered) / float64(r.expected)
}

// runRep runs every cell of the workload serially. Deliveries pool over
// cells; delay, control overhead and fairness average over cells.
func runRep(wl *workload, seed uint64, shards int, p *probe) (*repResult, error) {
	rep := &repResult{cells: make([]cellResult, len(wl.cells))}
	for i := range wl.cells {
		c, err := runCell(&wl.cells[i], worldSeed(wl, seed), shards, p)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", wl.name, err)
		}
		rep.cells[i] = c
	}
	rep.fold()
	return rep, nil
}

func worldSeed(wl *workload, seed uint64) uint64 { return runner.DeriveSeed(seed, wl.seedIndex) }

func (rep *repResult) fold() {
	dg, og := fnv.New64a(), fnv.New64a()
	n := float64(len(rep.cells))
	for i := range rep.cells {
		c := &rep.cells[i]
		rep.setupS += c.setupS()
		rep.wallS += c.trafficS
		rep.events += c.events
		rep.eventsTotal += c.eventsTotal
		rep.mallocs += c.mallocs
		rep.sent += c.sent
		rep.expected += c.expected
		rep.delivered += c.delivered
		rep.stale += c.stale
		rep.p50ms += c.p50 * 1000 / n
		rep.p95ms += c.p95 * 1000 / n
		rep.ctrl += c.ctrl / n
		rep.jain += c.jain / n
		if c.audiencePeak > rep.audiencePeak {
			rep.audiencePeak = c.audiencePeak
		}
		fmt.Fprintf(og, "%d %d %d %d %x %x %x;", c.sent, c.expected, c.delivered, c.stale,
			c.delayDigest, math.Float64bits(c.ctrl), math.Float64bits(c.jain))
		fmt.Fprintf(dg, "%d %d %d %d %d %x;", c.sent, c.expected, c.delivered, c.stale, c.eventsTotal, c.delayDigest)
	}
	rep.digest, rep.outcome = dg.Sum64(), og.Sum64()
}

// e2e returns the rep's end-to-end values by metric name, peak_heap_mb
// excepted (the memory rep supplies it).
func (rep *repResult) e2e() map[string]float64 {
	return map[string]float64{
		"setup_s":               rep.setupS,
		"wall_s":                rep.wallS,
		"events_per_s":          float64(rep.events) / rep.wallS,
		"allocs_per_event":      float64(rep.mallocs) / float64(rep.events),
		"pdr":                   rep.pdr(),
		"ctrl_bytes_per_node_s": rep.ctrl,
	}
}

// memoryRep runs one untimed rep that forces a collection once per
// simulated second and returns the peak live heap, in MB, above the
// baseline taken before each world is built. Cells run one after
// another, so the workload's peak is its largest cell's.
func memoryRep(wl *workload, seed uint64) (*repResult, float64, error) {
	var base, peak uint64
	rep, err := runRep(wl, seed, 1, &probe{
		begin: func(name, _ string) func() {
			if name == "cell" {
				base = liveHeap()
			}
			return nop
		},
		second: func(*scenario.World) {
			if h := liveHeap(); h > base+peak {
				peak = h - base
			}
		},
	})
	return rep, float64(peak) / (1 << 20), err
}

func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
