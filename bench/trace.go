package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/experiment"
	"repro/internal/georoute"
	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/runner"
	"repro/internal/scenario"
)

// span is one traced interval. Spans are recorded from the benchmark's
// side of each call into the simulator (spans inside the program are a
// later change), kept in memory, and written out when the rep ends.
type span struct {
	ID      int                `json:"id"`
	Parent  int                `json:"parent"` // 0: no parent
	Name    string             `json:"name"`
	Label   string             `json:"label,omitempty"`
	StartMs float64            `json:"start_ms"`
	EndMs   float64            `json:"end_ms"`
	Attrs   map[string]float64 `json:"attrs,omitempty"`
}

// tracer records the spans of one traced rep: a span per cell, one per
// phase under it, and under the warm and traffic phases one per
// simulated second carrying what that second cost.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // stack of open span IDs

	// State of the per-second sampler: the previous second's readings.
	// A new cell is a new world, and the traffic phase starts from
	// reset traffic counters, so begin zeroes them there.
	lastHost        time.Time
	lastExec        uint64
	lastTx, lastByt map[string]uint64
	pendingPeak     int
}

func (t *tracer) ms(at time.Time) float64 { return float64(at.Sub(t.t0).Nanoseconds()) / 1e6 }

func (t *tracer) begin(name, label string) func() {
	now := time.Now()
	s := span{ID: len(t.spans) + 1, Name: name, Label: label, StartMs: t.ms(now)}
	if n := len(t.open); n > 0 {
		s.Parent = t.open[n-1]
	}
	t.spans = append(t.spans, s)
	t.open = append(t.open, s.ID)
	t.lastHost = now
	switch name {
	case "cell":
		t.lastExec, t.lastTx, t.lastByt = 0, nil, nil
	case "scenario.traffic":
		t.lastTx, t.lastByt = nil, nil
	}
	return func() {
		t.spans[s.ID-1].EndMs = t.ms(time.Now())
		t.open = t.open[:len(t.open)-1]
	}
}

// second closes one simulated second: a child span of the open phase
// with the deltas of Sim.Executed and of the network's per-kind
// transmission and byte counters, and the pending-set depth.
func (t *tracer) second(w *scenario.World) {
	now := time.Now()
	st := w.Net.Stats()
	exec, pending := w.Sim.Executed(), w.Sim.Pending()
	if pending > t.pendingPeak {
		t.pendingPeak = pending
	}
	if len(t.open) > 0 {
		attrs := map[string]float64{
			"sim_t":   float64(w.Sim.Now()),
			"events":  float64(exec - t.lastExec),
			"pending": float64(pending),
		}
		for k, v := range st.KindTx {
			if d := v - t.lastTx[k]; d > 0 {
				attrs["tx."+k] = float64(d)
				attrs["bytes."+k] = float64(st.KindBytes[k] - t.lastByt[k])
			}
		}
		t.spans = append(t.spans, span{
			ID: len(t.spans) + 1, Parent: t.open[len(t.open)-1], Name: "sim-second",
			StartMs: t.ms(t.lastHost), EndMs: t.ms(now), Attrs: attrs,
		})
	}
	t.lastHost, t.lastExec, t.lastTx, t.lastByt = now, exec, st.KindTx, st.KindBytes
}

func (t *tracer) write(dir string, wl *workload, seed uint64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	doc := struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{wl.name, seed, t.spans}
	raw, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+wl.name+".json"), raw, 0o644)
}

// collector gathers the counters the layers already export, cell by
// cell, and keeps the last hvdb world for the drills.
type collector struct {
	m     map[string]float64
	setup network.Stats // the cell's counters at the end of warm-up
	world *scenario.World
	stack protocol.Stack
}

// kindSum adds up a per-kind counter over the kinds accepted by match,
// across a cell's setup and traffic phases.
func (c *collector) kindSum(traffic network.Stats, bytes bool, match func(kind string) bool) float64 {
	var sum uint64
	for _, st := range []network.Stats{c.setup, traffic} {
		src := st.KindTx
		if bytes {
			src = st.KindBytes
		}
		for k, v := range src {
			if match(k) {
				sum += v
			}
		}
	}
	return float64(sum)
}

// plane matches a protocol plane's kinds, sent directly or inside a
// geo-routing envelope. (A geo-routed transmission therefore counts
// under georoute.tx, the layer that carried it, and under the plane
// that caused it.)
func plane(kinds ...string) func(string) bool {
	return func(k string) bool {
		k = strings.TrimPrefix(k, georoute.KindPrefix)
		for _, want := range kinds {
			if k == want {
				return true
			}
		}
		return false
	}
}

func (c *collector) done(cl *cell, w *scenario.World, stk protocol.Stack, r *cellResult) {
	m := c.m
	st := w.Net.Stats()
	all := func(string) bool { return true }
	m["des.events"] += float64(r.eventsTotal)
	m["network.tx"] += c.kindSum(st, false, all)
	m["network.lost"] += float64(c.setup.Lost + st.Lost)
	m["georoute.tx"] += c.kindSum(st, false, func(k string) bool {
		return k == georoute.Kind || strings.HasPrefix(k, georoute.KindPrefix)
	})
	m["georoute.dropped"] += float64(w.BB.Geo().Dropped())
	ps := stk.Stats()
	m["protocol.sent"] += float64(ps.Sent)
	m["protocol.delivered"] += float64(ps.Delivered)
	if r.audiencePeak > int(m["scenario.audience_peak"]) {
		m["scenario.audience_peak"] = float64(r.audiencePeak)
	}
	wall := r.setupS() + r.trafficS
	if cl.arm != "hvdb" {
		m["baseline.tx"] += c.kindSum(st, false, all)
		m["baseline."+cl.arm+"_wall_s"] += wall
		return
	}
	m["protocol.hvdb_wall_s"] += wall
	m["cluster.tx"] += c.kindSum(st, false, plane("cluster-beacon"))
	m["cluster.elections"] += float64(w.CM.Elections())
	m["cluster.changes"] += float64(w.CM.Changes())
	m["core.tx"] += c.kindSum(st, false, plane("hvdb-beacon"))
	m["core.bytes"] += c.kindSum(st, true, plane("hvdb-beacon"))
	m["core.beacons"] += float64(w.BB.Beacons())
	member := plane("local-membership", "mnt-summary", "ht-summary")
	m["membership.tx"] += c.kindSum(st, false, member)
	m["membership.bytes"] += c.kindSum(st, true, member)
	m["membership.ht_broadcasts"] += float64(w.MS.HTBroadcasts)
	m["membership.summary_versions"] += float64(w.MS.SummaryVersion())
	trees := w.BB.Trees()
	m["route.hits"] += float64(trees.Hits)
	m["route.misses"] += float64(trees.Misses)
	m["route.invalidated"] += float64(trees.Invalidated)
	m["multicast.sends"] += float64(w.MC.Sent)
	m["multicast.tx"] += c.kindSum(st, false, plane("mcast-src", "mcast-data", "mcast-local"))
	m["multicast.tree_computes"] += float64(w.MC.TreeComputes)
	m["multicast.tree_cache_hits"] += float64(w.MC.TreeCacheHits)
	m["multicast.delivered"] += float64(w.MC.Delivered)
	c.world, c.stack = w, stk
}

// runTraced takes the per-layer metrics of one workload from one traced
// rep, run after (and apart from) the timed reps in ref: spans and
// per-second counters, a CPU profile folded by package, the layers' own
// counters, then the drills on the warmed world.
func runTraced(wl *workload, o options, ref *e2eResult) (map[string]float64, error) {
	tr := &tracer{t0: time.Now()}
	col := &collector{m: map[string]float64{}}
	p := &probe{
		begin:  tr.begin,
		second: tr.second,
		warmed: func(w *scenario.World) { col.setup = w.Net.Stats() },
		done:   col.done,
	}
	var prof bytes.Buffer
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	rep, err := runRep(wl, o.seed, 1, p)
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, err
	}
	if rep.outcome != ref.ref.outcome {
		return nil, fmt.Errorf("%s: traced rep delivered %d/%d, timed reps %d/%d: tracing changed the simulated outcome",
			wl.name, rep.delivered, rep.expected, ref.ref.delivered, ref.ref.expected)
	}
	if err := tr.write(o.outDir, wl, o.seed); err != nil {
		return nil, err
	}

	m := col.m
	m["bench.trace_overhead"] = rep.wallS / ref.median("wall_s")
	m["des.pending_peak"] = float64(tr.pendingPeak)
	m["scenario.delay_p50_ms"], m["scenario.delay_p95_ms"], m["scenario.jain"] = rep.p50ms, rep.p95ms, rep.jain
	for i := range rep.cells {
		m["scenario.build_s"] += rep.cells[i].buildS
		m["scenario.warm_s"] += rep.cells[i].warmS
		m["scenario.traffic_s"] += rep.cells[i].trafficS
	}
	if lookups := m["route.hits"] + m["route.misses"]; lookups > 0 {
		m["route.hit_ratio"] = m["route.hits"] / lookups
	}
	if d := m["multicast.delivered"]; d > 0 {
		m["multicast.tx_per_delivery"] = m["multicast.tx"] / d
	}
	m["runtime.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
	m["runtime.gc_pause_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6

	samples, err := parseProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	// Every sample lands in exactly one layer, so the shares sum to 1.
	for layer, share := range foldByLayer(samples, cpuLayers) {
		m[layer+".cpu_share"] = share
	}

	serial := ref.median("setup_s") + ref.median("wall_s")
	if wl.sharded {
		// ROADMAP item 4's decision number: the same world on the
		// sharded kernel, against the serial timed reps.
		shards := min(max(runtime.NumCPU(), 2), 4)
		sh, err := runRep(wl, o.seed, shards, nil)
		if err != nil {
			return nil, err
		}
		if sh.digest != ref.ref.digest {
			return nil, fmt.Errorf("%s: shards=%d ran %d events and delivered %d, serial ran %d and delivered %d",
				wl.name, shards, sh.eventsTotal, sh.delivered, ref.ref.eventsTotal, ref.ref.delivered)
		}
		m["des.sharded_speedup"] = serial / (sh.setupS + sh.wallS)
	}
	if len(wl.cells) > 1 {
		// Cells are independent worlds: the same rep through runner.Map
		// on every core, against the serial timed reps.
		t0 := time.Now()
		_, err := runner.Map(runner.Config{Workers: runtime.NumCPU()}, 0, len(wl.cells), func(r runner.Run) (cellResult, error) {
			return runCell(&wl.cells[r.Index], worldSeed(wl, o.seed), 1, nil)
		})
		if err != nil {
			return nil, err
		}
		m["runner.speedup"] = serial / time.Since(t0).Seconds()
	}
	if wl.suite {
		var err error
		if m["experiment.suite_wall_s"], err = suiteWall(o); err != nil {
			return nil, err
		}
	}
	if col.world != nil {
		runDrills(m, col.world, col.stack, o)
	}
	delete(m, "multicast.delivered")
	return m, nil
}

// suiteWall times the paper experiments end to end — ROADMAP's
// "full-suite hvdbbench wall-clock" — at full size on every core.
func suiteWall(o options) (float64, error) {
	opts := experiment.Options{Seed: o.seed, Scale: 1, Workers: runtime.NumCPU()}
	if o.quick {
		opts.Scale = 0.25
	}
	t0 := time.Now()
	for _, id := range []string{"f1", "f2", "f3", "f4", "f5", "f6", "c1", "c2", "c3", "c4", "c5", "c6", "stress"} {
		if _, err := experiment.Run(id, opts); err != nil {
			return 0, err
		}
	}
	return time.Since(t0).Seconds(), nil
}
