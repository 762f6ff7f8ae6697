// Benchmarks of what bench/ does not report: ablations of the design
// choices DESIGN.md calls out (BenchmarkAblation*, paper-level metrics
// via ReportMetric) and two hypercube micro-benches. Timing of the
// experiments and of the per-layer kernels is bench/'s
// (experiment.suite_wall_s and the drills); the two state-budget tests
// at the end ride here because they share the end-to-end world.
package hvdb

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/hypercube"
	"repro/internal/logicalid"
	"repro/internal/membership"
	"repro/internal/multicast"
	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/scenario"
	"repro/internal/xrand"
)

// Ablation: the local route horizon k (paper: "k is a system parameter,
// e.g. k = 4") — table size and beacon cost vs reach.
func BenchmarkAblationHorizonK(b *testing.B) {
	for _, k := range []int{1, 2, 4, 6} {
		b.Run(string(rune('0'+k)), func(b *testing.B) {
			var known float64
			var ctrl uint64
			for i := 0; i < b.N; i++ {
				spec := scenario.DefaultSpec()
				spec.Seed = uint64(i + 1)
				spec.Nodes = 0
				w, err := scenario.Build(spec)
				if err != nil {
					b.Fatal(err)
				}
				cfg := core.DefaultConfig()
				cfg.K = k
				cfg.RouteTTL = 1000
				mux := network.Bind(w.Net)
				w.BB = core.New(w.Net, mux, w.CM, w.Scheme, cfg)
				w.CM.Elect()
				for r := 0; r < k+1; r++ {
					w.BB.BeaconRound()
					w.Sim.RunUntil(w.Sim.Now() + cfg.BeaconPeriod)
				}
				known = float64(w.BB.KnownDestinations(0))
				ctrl = w.Net.Stats().ControlBytes
			}
			b.ReportMetric(known, "dests-known")
			b.ReportMetric(float64(ctrl)/1024, "ctrl-KiB")
		})
	}
}

// Ablation: hypercube dimension for a fixed 8x8 VC region — fewer,
// larger cubes vs more, smaller ones.
func BenchmarkAblationDimension(b *testing.B) {
	for _, dim := range []int{2, 4, 6} {
		b.Run(string(rune('0'+dim)), func(b *testing.B) {
			var hops float64
			for i := 0; i < b.N; i++ {
				spec := scenario.DefaultSpec()
				spec.Seed = uint64(i + 1)
				spec.Dim = dim
				spec.Nodes = 0
				w, err := scenario.Build(spec)
				if err != nil {
					b.Fatal(err)
				}
				w.CM.Elect()
				rng := xrand.New(uint64(i + 1))
				var total, pairs int
				for p := 0; p < 50; p++ {
					a := logicalid.CHID(rng.Intn(w.Grid.Count()))
					c := logicalid.CHID(rng.Intn(w.Grid.Count()))
					if a == c {
						continue
					}
					if d, ok := w.BB.LogicalReach(a, 64)[c]; ok {
						total += d
						pairs++
					}
				}
				if pairs > 0 {
					hops = float64(total) / float64(pairs)
				}
			}
			b.ReportMetric(hops, "logical-hops")
		})
	}
}

// Ablation: the designated-broadcaster criterion of §4.2 — the paper's
// self+neighbors criterion vs self-only vs a fixed broadcaster.
func BenchmarkAblationBroadcaster(b *testing.B) {
	policies := map[string]membership.DesignationPolicy{
		"self+neighbors": membership.DesignateSelfPlusNeighbors,
		"self":           membership.DesignateSelf,
		"fixed":          membership.DesignateFixed,
	}
	for name, policy := range policies {
		b.Run(name, func(b *testing.B) {
			var broadcasts uint64
			for i := 0; i < b.N; i++ {
				spec := scenario.DefaultSpec()
				spec.Seed = uint64(i + 1)
				spec.Nodes = 64
				spec.Groups = 2
				spec.MembersPerGroup = 8
				spec.Mobility = scenario.Static
				w, err := scenario.Build(spec)
				if err != nil {
					b.Fatal(err)
				}
				mcfg := membership.DefaultConfig()
				mcfg.Designation = policy
				mcfg.LocalTTL = 0
				ms := membership.New(w.BB, mcfg)
				for g, members := range w.Members {
					for _, id := range members {
						ms.Join(id, g)
					}
				}
				ms.LocalRound()
				w.Sim.RunUntil(w.Sim.Now() + 2)
				ms.MNTRound()
				w.Sim.RunUntil(w.Sim.Now() + 5)
				ms.HTRound()
				w.Sim.RunUntil(w.Sim.Now() + 10)
				broadcasts = ms.HTBroadcasts
			}
			b.ReportMetric(float64(broadcasts), "ht-broadcasts")
		})
	}
}

// Ablation: multicast tree caching on/off (the paper caches trees "for
// future use").
func BenchmarkAblationTreeCache(b *testing.B) {
	run := func(b *testing.B, ttl des.Duration) {
		var computes uint64
		for i := 0; i < b.N; i++ {
			spec := scenario.DefaultSpec()
			spec.Seed = uint64(i + 1)
			spec.Nodes = 64
			spec.Groups = 1
			spec.MembersPerGroup = 10
			spec.Mobility = scenario.Static
			w, err := scenario.Build(spec)
			if err != nil {
				b.Fatal(err)
			}
			mcfg := multicast.DefaultConfig()
			mcfg.CacheTTL = ttl
			w.MC = multicast.New(w.BB, w.MS, w.Mux, mcfg)
			stk := startHVDB(b, w)
			w.WarmUp(12)
			src := w.RandomSource()
			for p := 0; p < 10; p++ {
				stk.Send(src, 0, 256)
				w.Sim.RunUntil(w.Sim.Now() + 0.3)
			}
			w.Sim.RunUntil(w.Sim.Now() + 3)
			stk.Stop()
			computes = w.MC.TreeComputes
		}
		b.ReportMetric(float64(computes), "tree-computes")
	}
	b.Run("cached", func(b *testing.B) { run(b, 100) })
	b.Run("uncached", func(b *testing.B) { run(b, 0) })
}

// Micro-benches of the computational kernels.

func BenchmarkHypercubeRoute(b *testing.B) {
	c := hypercube.Complete(10)
	rng := xrand.New(1)
	// Punch some holes so the BFS fallback is exercised.
	for i := 0; i < 200; i++ {
		c.Remove(hypercube.Label(rng.Intn(c.Size())))
	}
	labels := c.Labels()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := labels[i%len(labels)]
		dst := labels[(i*7+3)%len(labels)]
		c.Route(src, dst)
	}
}

func BenchmarkDisjointPaths(b *testing.B) {
	for i := 0; i < b.N; i++ {
		hypercube.DisjointPaths(0, hypercube.Label(i%63+1), 6)
	}
}

// endToEndWorld is the warmed static world of the data-plane allocation
// budget: 100 nodes, one group of 10 members, every periodic plane
// running.
func endToEndWorld(tb testing.TB) (*scenario.World, protocol.Stack, network.NodeID) {
	tb.Helper()
	spec := scenario.DefaultSpec()
	spec.Nodes = 100
	spec.Groups = 1
	spec.MembersPerGroup = 10
	spec.Mobility = scenario.Static
	w, err := scenario.Build(spec)
	if err != nil {
		tb.Fatal(err)
	}
	stk := startHVDB(tb, w)
	w.WarmUp(12)
	return w, stk, w.RandomSource()
}

// startHVDB builds and starts the hvdb arm on w.
func startHVDB(tb testing.TB, w *scenario.World) protocol.Stack {
	tb.Helper()
	stk, err := w.Protocol("hvdb")
	if err != nil {
		tb.Fatal(err)
	}
	stk.Start()
	return stk
}

// TestDataPlaneAllocBudget holds one multicast send — source hop, both
// tree tiers, local broadcasts, every delivery — to a fixed allocation
// budget once trees are cached and pools are warm, so a regression in
// the forwarding path fails here and not in the next benchmark run.
// What a send may allocate is fixed, not grown by how many CHs forward
// it or how many hypercubes it enters (internal/multicast): its flight
// record (the record and its bitsets, two objects), the mesh-tier
// header, and one slice backing the headers of every hypercube it
// enters; every copy's hop count rides its pooled packet, and packets,
// geo envelopes and events are pooled. The periodic planes
// are stopped for the measurement (their rounds allocate by design); it
// stays well inside the members' report freshness window (membership
// LocalTTL, 2.5 s), and the delivery check below would catch it if it
// did not.
func TestDataPlaneAllocBudget(t *testing.T) {
	const budget = 6 // allocations per send; measured 4: 2 + 1 + 1 (7 with one header for each of this world's 4 hypercubes)
	w, stk, src := endToEndWorld(t)
	stk.Stop()
	w.Sim.RunUntil(w.Sim.Now() + 0.3) // let control traffic in flight land
	send := func() {
		stk.Send(src, 0, 512)
		w.Sim.RunUntil(w.Sim.Now() + 0.15)
	}
	send() // caches the trees
	perSend := w.MC.Delivered
	if perSend == 0 {
		t.Fatal("warm-up send delivered to nobody: the budget would measure nothing")
	}
	const runs = 5
	allocs := testing.AllocsPerRun(runs, send) // one more warm-up call, then runs
	if got, want := w.MC.Delivered, perSend*(runs+2); got != want {
		t.Fatalf("delivered %d over %d sends, want %d each: the measured sends did less work than the first", got, runs+2, perSend)
	}
	if n := w.Net.PooledInFlight(); n != 0 {
		t.Fatalf("after the drains: %d pooled packets out", n)
	}
	if allocs > budget {
		t.Fatalf("one warmed send allocates %v objects, budget %d", allocs, budget)
	}
	t.Logf("one warmed send: %v allocations (budget %d), %d deliveries", allocs, budget, perSend)
}

// TestBaselineStateBounded holds the comparison arms to the state
// contract the HVDB data plane already meets: what a flood or a send
// learns about itself rides its packets and dies with them. First, the
// dsm control plane alone (64 static nodes, every one flooding its
// position each 2 s round) must hold no more live heap after thirty
// rounds than after ten — with a uid-keyed dedup table that nothing
// deletes from, it grows by one 64-entry map per node per round, 3.1 MB
// over these forty seconds. Second, no arm keeps a record per data
// send: on a static world, a drained phase of many sends leaves no more
// live heap than a short one, in objects within a slack that one object
// kept per send would exceed, and in bytes within the dsm check's
// slack, which a 160-byte record kept per send would exceed (the event
// kernel's chunk pool never outgrows what it has held at once, so a
// longer phase of the same traffic does not grow it).
func TestBaselineStateBounded(t *testing.T) {
	spec := scenario.DefaultSpec()
	spec.ArenaSize = 1000 // dense enough that every flood reaches every node
	spec.Nodes = 64
	spec.AnchorCHs = false
	spec.Groups = 1
	spec.MembersPerGroup = 8
	spec.Mobility = scenario.Static
	w, err := scenario.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	stk, err := w.Protocol("dsm")
	if err != nil {
		t.Fatal(err)
	}
	stk.Start()
	live := func() runtime.MemStats {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms
	}
	liveAt := func(at des.Time) uint64 {
		w.RunUntil(at) // one second past a round: its floods have landed
		return live().HeapAlloc
	}
	after10, after30 := liveAt(21), liveAt(61)
	stk.Stop()
	if tx := w.Net.Stats().KindTx[baseline.DSMPositionKind]; tx < 30*64 {
		t.Fatalf("%d position transmissions in 30 rounds of 64 floods: the control plane did not run", tx)
	}
	const slack = 256 << 10
	if after30 > after10+slack {
		t.Errorf("live heap grew from %d to %d bytes between 10 and 30 dsm position rounds (slack %d): flood state outlives its flood", after10, after30, slack)
	}
	t.Logf("live heap after 10 rounds %d B, after 30 rounds %d B", after10, after30)

	const gap, drain, sends = 0.02, 5, 2000
	for _, arm := range protocol.Names() {
		spec := scenario.DefaultSpec()
		spec.Nodes = 64
		spec.Groups = 1
		spec.MembersPerGroup = 8
		spec.Mobility = scenario.Static
		w, err := scenario.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		stk, err := w.Protocol(arm)
		if err != nil {
			t.Fatal(err)
		}
		stk.Start()
		w.WarmUp(10)
		src := w.RandomSource()
		phase := func(n int) runtime.MemStats {
			m := w.Meter(stk, drain)
			w.CBR(func() uint64 { return m.Send(src, 0, 64) }, gap, n)
			w.RunUntil(w.Sim.Now() + gap*des.Duration(n) + drain)
			if c := m.Close(); c.Sent != n || c.Delivered == 0 {
				t.Fatalf("%s: %d of %d sends started, %d deliveries: the phase measured nothing", arm, c.Sent, n, c.Delivered)
			}
			return live()
		}
		before := phase(sends / 10)
		after := phase(sends)
		stk.Stop()
		if after.HeapObjects > before.HeapObjects+sends/2 {
			t.Errorf("%s: live heap objects grew from %d to %d over %d drained sends (slack %d): per-send state outlives its packet", arm, before.HeapObjects, after.HeapObjects, sends, sends/2)
		}
		if after.HeapAlloc > before.HeapAlloc+slack {
			t.Errorf("%s: live heap grew from %d to %d bytes over %d drained sends (slack %d): per-send state outlives its packet", arm, before.HeapAlloc, after.HeapAlloc, sends, slack)
		}
		t.Logf("%s: live heap %d objects / %d B after %d sends, %d / %d B after %d more", arm, before.HeapObjects, before.HeapAlloc, sends/10, after.HeapObjects, after.HeapAlloc, sends)
	}
}

// Ablation: GPS positioning error — the model assumes GPS; this sweeps
// how much per-axis Gaussian error the logical-location machinery
// tolerates before clustering destabilizes and delivery suffers.
func BenchmarkAblationGPSError(b *testing.B) {
	for _, sigma := range []float64{0, 10, 30, 60} {
		name := fmt.Sprintf("%.0fm", sigma)
		b.Run(name, func(b *testing.B) {
			var pdr, chChanges float64
			for i := 0; i < b.N; i++ {
				spec := scenario.DefaultSpec()
				spec.Seed = uint64(i + 1)
				spec.Nodes = 80
				spec.Groups = 1
				spec.MembersPerGroup = 10
				spec.Mobility = scenario.Static
				spec.GPSError = sigma
				w, err := scenario.Build(spec)
				if err != nil {
					b.Fatal(err)
				}
				stk := startHVDB(b, w)
				w.WarmUp(12)
				m := w.Meter(stk, 5)
				src := w.RandomSource()
				for p := 0; p < 8; p++ {
					m.Send(src, 0, 256)
					w.Sim.RunUntil(w.Sim.Now() + 0.5)
				}
				w.Sim.RunUntil(w.Sim.Now() + 5)
				pdr = m.Close().PDR()
				stk.Stop()
				chChanges = float64(w.CM.Changes())
			}
			b.ReportMetric(pdr, "pdr")
			b.ReportMetric(chChanges, "ch-changes")
		})
	}
}
