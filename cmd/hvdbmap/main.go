// Command hvdbmap renders an ASCII snapshot of the HVDB backbone after
// building and warming up a scenario: the VC grid with CH roles (a live
// Figure 2), one hypercube's label occupancy (a live Figure 3), and the
// mesh tier — before and, optionally, after failing part of the
// backbone.
//
//	hvdbmap -nodes 200 -warmup 10 -fail 12 -cube 0
//	hvdbmap -nodes 200 -trials 16 -parallel 4
//
// Flags follow the shared conventions of hvdbsim and hvdbbench: -seed
// seeds the PRNG, and with -trials N the scenario is replicated N times
// with positionally derived seeds (runner.DeriveSeed) fanned across
// -parallel workers. The map views are always rendered for the base
// seed; the trial replication aggregates backbone-health statistics
// (VCs headed, complete hypercubes, mesh occupancy) as mean ± 95%
// confidence half-width, so one invocation reports both one concrete
// backbone and how typical it is.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/cliflag"
	"repro/internal/des"
	"repro/internal/hypercube"
	"repro/internal/logicalid"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/viz"
)

func main() {
	var (
		seed     = flag.Uint64("seed", 1, "PRNG seed")
		arena    = flag.Float64("arena", 2000, "arena side in meters")
		dim      = flag.Int("dim", 4, "hypercube dimension")
		nodes    = flag.Int("nodes", 200, "ordinary mobile nodes")
		speed    = flag.Float64("speed", 5, "max node speed m/s (0 = static)")
		warm     = flag.Float64("warmup", 10, "warm-up simulated seconds")
		fail     = flag.Int("fail", 0, "anchor CHs to fail after warm-up")
		cube     = flag.Int("cube", 0, "hypercube to render in detail")
		trials   = flag.Int("trials", 1, "independent trials (seeds derived per trial)")
		parallel = flag.Int("parallel", 0, "max concurrent trials (0 = GOMAXPROCS)")
		shards   = flag.Int("shards", 1, "shard count for the sharded event kernel (1 = serial); the rendered backbone is identical at every setting")
	)
	cli := cliflag.Parse("hvdbmap")

	// Range-check the numeric flags up front: exit 2 with usage instead
	// of panicking in a constructor or looping on a degenerate sweep.
	// (-nodes 0 is allowed: an anchors-only map is a legitimate render.)
	cli.Min(0, "nodes", "fail", "cube", "warmup", "parallel")
	cli.Min(1, "dim", "trials", "shards")
	cli.Max(hypercube.MaxDim, "dim")
	cli.Max(cliflag.MaxWarmup, "warmup")
	cli.Max(cliflag.MaxTrials, "trials")
	cli.WarnShards(*shards)
	spec := scenario.DefaultSpec()
	spec.Seed = *seed
	spec.ArenaSize = *arena
	spec.Dim = *dim
	spec.Nodes = *nodes
	spec.Shards = *shards
	if *speed <= 0 {
		spec.Mobility = scenario.Static
	} else {
		spec.Mobility = scenario.Waypoint
		spec.MaxSpeed = *speed
	}
	if err := spec.Validate(); err != nil {
		cli.Fail("%v", err)
	}

	renderMap(spec, *warm, *fail, *cube)

	if *trials > 1 {
		aggregate(spec, *warm, *fail, *trials, *parallel)
	}
}

// renderMap draws the base-seed backbone before and after failures.
func renderMap(spec scenario.Spec, warm float64, fail, cube int) {
	w, err := scenario.Build(spec)
	if err != nil {
		log.Fatal(err)
	}
	if n := w.Scheme.NumHypercubes(); cube >= n {
		fmt.Fprintf(os.Stderr, "hvdbmap: unknown hypercube %d\nusage: this arena has hypercubes 0..%d (-cube selects one to render)\n",
			cube, n-1)
		os.Exit(2)
	}
	stk, err := w.Protocol("hvdb")
	if err != nil {
		log.Fatal(err)
	}
	stk.Start()
	w.RunUntil(des.Time(warm))

	fmt.Println(viz.Summary(w.BB, w.CM))
	fmt.Println()
	fmt.Println("VC grid (B=border CH, i=inner CH, .=no CH):")
	fmt.Print(viz.GridView(w.BB))
	fmt.Println()
	fmt.Print(viz.CubeView(w.BB, logicalid.HID(cube)))
	fmt.Println()
	fmt.Println("mesh tier:")
	fmt.Print(viz.MeshView(w.BB))

	if fail > 0 {
		failed := w.FailRandomAnchors(fail)
		w.CM.Elect()
		fmt.Printf("\n*** failed %d anchor CHs ***\n\n", len(failed))
		fmt.Println(viz.Summary(w.BB, w.CM))
		fmt.Println()
		fmt.Print(viz.GridView(w.BB))
		fmt.Println()
		fmt.Print(viz.CubeView(w.BB, logicalid.HID(cube)))
		fmt.Println()
		fmt.Println("mesh tier:")
		fmt.Print(viz.MeshView(w.BB))
	}
	stk.Stop()
}

// health is the backbone condition of one trial.
type health struct {
	headed, completeCubes, meshNodes float64
}

// aggregate replicates the scenario across derived seeds and reports
// backbone-health statistics.
func aggregate(base scenario.Spec, warm float64, fail, trials, parallel int) {
	results, err := runner.Map(runner.Config{Workers: parallel}, base.Seed, trials,
		func(r runner.Run) (health, error) {
			spec := base
			spec.Seed = r.Seed
			w, err := scenario.Build(spec)
			if err != nil {
				return health{}, err
			}
			stk, err := w.Protocol("hvdb")
			if err != nil {
				return health{}, err
			}
			stk.Start()
			w.RunUntil(des.Time(warm))
			if fail > 0 {
				w.FailRandomAnchors(fail)
				w.CM.Elect()
			}
			var h health
			h.headed = float64(len(w.CM.HeadSlots()))
			scheme := w.BB.Scheme()
			for i := 0; i < scheme.NumHypercubes(); i++ {
				c := w.BB.Cube(logicalid.HID(i))
				if c.Count() == c.Size() {
					h.completeCubes++
				}
			}
			h.meshNodes = float64(w.BB.Mesh().Count())
			stk.Stop()
			return h, nil
		})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n%d trials, seeds derived from base %d", trials, base.Seed)
	if fail > 0 {
		fmt.Printf(" (after failing %d anchors each)", fail)
	}
	fmt.Println()
	metric := func(name string, get func(health) float64) {
		xs := make([]float64, len(results))
		for i, h := range results {
			xs[i] = get(h)
		}
		mean, half := stats.MeanCI(xs)
		fmt.Printf("  %-20s %.2f ± %.2f\n", name, mean, half)
	}
	metric("VCs headed", func(h health) float64 { return h.headed })
	metric("complete hypercubes", func(h health) float64 { return h.completeCubes })
	metric("mesh nodes", func(h health) float64 { return h.meshNodes })
	fmt.Printf("(± is the 95%% confidence half-width over %d trials)\n", trials)
}
