// Command hvdbbench regenerates the paper's figures and claim
// evaluations. Run with no flags to execute every experiment at full
// size, or select one with -exp.
//
//	hvdbbench               # all experiments, full size
//	hvdbbench -exp f4       # just the Figure 4 experiment
//	hvdbbench -quick        # reduced sizes (smoke test)
//	hvdbbench -parallel 8   # fan runs over 8 workers (same tables)
//	hvdbbench -list         # list experiment IDs
//	hvdbbench -json         # scale benchmark -> BENCH_scale.json
//	hvdbbench -perfsmoke    # N=1000/5000 points vs committed baseline (CI gate)
//	hvdbbench -scalemem     # N=50000 wall-clock + peak-heap budgets (CI gate)
//	hvdbbench -maxnodes 1000000 -json   # include the 1M point (nightly)
//	hvdbbench -cpuprofile cpu.pprof -exp scale   # profile a run
//
// Independent runs inside each experiment (trials, sweep points,
// protocol arms) are fanned across -parallel workers; per-run seeds are
// derived positionally from -seed, so the tables are byte-identical at
// every -parallel setting.
//
// -json runs the scale sweep (N up to 10,000 nodes at full size)
// serially, measuring wall-clock and allocations per population, and
// writes the machine-readable baseline to BENCH_scale.json — stamped
// with the Go version and GOMAXPROCS it was measured under — so future
// changes have a perf trajectory to compare against. Each population is
// recorded twice, at -shards 1 (serial kernel) and -shards 4 (sharded
// kernel); the event counts must agree exactly, so the baseline doubles
// as a standing record of the shard-count-independence contract. An
// explicit -shards k narrows the baseline to that single setting.
//
// -perfsmoke re-measures the N=1000 and N=5000 sweep points — every
// committed shard-count variant of each — and compares them against the
// committed BENCH_scale.json: a determinism drift (event count
// mismatch, within a variant or across shard counts), an events/sec
// regression beyond the tolerance, or an allocs/event or peak
// bytes/node figure above its ceiling fails the process, which is what
// the CI perf-smoke job runs.
//
// -scalemem runs the N=50000 mega-world once and enforces absolute
// wall-clock and peak-heap-per-node budgets (the CI scale-mem job).
// -maxnodes raises the sweep's population cap past the 100k default so
// the nightly job can include the 1M point; populations ascend, so the
// cap only ever adds or drops trailing rows.
//
// Unknown flags and stray positional arguments exit with status 2 and
// usage, matching the hvdbsim/hvdbmap convention.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/cliflag"
	"repro/internal/experiment"
)

// benchFile is where -json writes (and -perfsmoke reads) the scale
// baseline.
const benchFile = "BENCH_scale.json"

// perfSmokePoints and perfSmokeTolerance define the CI regression
// gate: the N=1000 and N=5000 sweep points must stay within 25% of the
// committed events/sec (wall-clock measures on shared runners are
// noisy; real kernel regressions at these sizes are well beyond 25%).
// Each point's allocs/event must additionally stay under
// perfSmokeAllocsSlack times the committed figure (plus a small
// absolute epsilon for GC-timing jitter): allocation counts are nearly
// machine-independent, so the ceiling catches pooling regressions the
// wall-clock tolerance would absorb.
var perfSmokePoints = []int{1000, 5000}

const (
	perfSmokeTolerance   = 0.25
	perfSmokeAllocsSlack = 1.5
	perfSmokeAllocsEps   = 0.02
	// Peak live heap per node is nearly deterministic but rides GC
	// timing (the sampler sees whatever HeapAlloc happens to be at each
	// barrier), so its ceiling gets the same multiplicative slack as
	// allocations. Baselines recorded before the column existed carry 0
	// and skip the check.
	perfSmokeBytesSlack = 1.5
)

// The -scalemem gate: the N=50000 mega-world must finish its sweep
// point inside a CI-feasible wall-clock budget and a per-node peak-heap
// budget. The budgets carry 2x-plus headroom over measured figures on a
// 1-CPU shared runner (~600 s wall, ~13 KB/node since the PR 10
// arena-scaled warmup/drain lengthened the 50k world to 51 simulated
// seconds, with wall-clock drifting up to ~40% on the hour scale); a
// breach means memory scaling regressed structurally — memory growing
// with arena area instead of occupancy, or retained per-packet state —
// not that the runner was slow.
const (
	scaleMemNodes      = 50000
	scaleMemWallBudget = 1500.0  // seconds
	scaleMemByteBudget = 25000.0 // peak heap bytes per node
)

func main() {
	var (
		exp        = flag.String("exp", "", "experiment ID to run (default: all)")
		quick      = flag.Bool("quick", false, "run reduced configurations")
		seed       = flag.Uint64("seed", 1, "PRNG seed")
		parallel   = flag.Int("parallel", 0, "max concurrent runs per experiment (0 = GOMAXPROCS); tables are identical at every setting")
		list       = flag.Bool("list", false, "list experiments and exit")
		csv        = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		jsonOut    = flag.Bool("json", false, "run the scale benchmark and write "+benchFile)
		perfSmoke  = flag.Bool("perfsmoke", false, "re-measure the N=1000 and N=5000 scale points and fail on events/s, allocs/event, or bytes/node regression against "+benchFile)
		scaleMem   = flag.Bool("scalemem", false, "run the N=50000 memory-scaling gate: wall-clock and peak-heap-per-node budgets (CI scale-mem job)")
		shards     = flag.Int("shards", 1, "shard count for the scale-family worlds (1 = serial kernel); tables and event counts are identical at every setting")
		maxNodes   = flag.Int("maxnodes", 0, "cap the scale sweep's population (0 = the 100k default); the nightly job raises it to 1000000 for the 1M point")
		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to `file`")
		memProfile = flag.String("memprofile", "", "write a pprof heap profile at exit to `file`")
	)
	cli := cliflag.Parse("hvdbbench")

	// Range-check up front: exit 2 with usage instead of handing the
	// worker pool a nonsensical bound mid-run.
	cli.Min(0, "parallel", "maxnodes")
	cli.Min(1, "shards")
	cli.WarnShards(*shards)

	if *list {
		for _, id := range experiment.IDs() {
			fmt.Printf("%-5s %s\n", id, experiment.Title(id))
		}
		return
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	defer func() {
		if *memProfile == "" {
			return
		}
		f, err := os.Create(*memProfile)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Fatal(err)
		}
	}()

	opts := experiment.DefaultOptions()
	if *quick {
		opts = experiment.QuickOptions()
	}
	opts.Seed = *seed
	opts.Workers = *parallel
	opts.Shards = *shards
	opts.MaxNodes = *maxNodes

	if *scaleMem {
		if *exp != "" || *csv || *jsonOut || *perfSmoke {
			log.Fatal("-scalemem runs only the N=50000 memory gate; it cannot combine with -exp, -csv, -json, or -perfsmoke")
		}
		if err := runScaleMem(opts); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *perfSmoke {
		if *exp != "" || *csv || *jsonOut {
			log.Fatal("-perfsmoke runs only the gated scale points; it cannot combine with -exp, -csv, or -json")
		}
		if err := runPerfSmoke(opts); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *jsonOut {
		if *exp != "" || *csv {
			log.Fatal("-json runs only the scale benchmark; it cannot combine with -exp or -csv")
		}
		if *quick {
			log.Printf("warning: -quick -json benchmarks the miniature worlds; do not commit the result as the full-size %s baseline", benchFile)
		}
		shardsSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "shards" {
				shardsSet = true
			}
		})
		if !shardsSet {
			// The baseline contract: a serial and a shards=4 point per
			// population. An explicit -shards narrows the run to one
			// configuration (e.g. for ad-hoc measurement).
			opts.Shards = 0
		}
		writeScaleBench(opts)
		return
	}

	ids := experiment.IDs()
	if *exp != "" {
		ids = []string{*exp}
	}
	for _, id := range ids {
		start := time.Now()
		tables, err := experiment.Run(id, opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("### %s — %s (%s)\n\n", id, experiment.Title(id), time.Since(start).Round(time.Millisecond))
		for _, t := range tables {
			if *csv {
				fmt.Printf("## %s: %s\n%s\n", t.ID, t.Title, t.CSV())
			} else {
				fmt.Println(t)
			}
		}
	}
}

// scaleBenchDoc is the on-disk shape of BENCH_scale.json.
type scaleBenchDoc struct {
	Seed       uint64                  `json:"seed"`
	Scale      float64                 `json:"scale"`
	GoVersion  string                  `json:"go_version"`
	GoMaxProcs int                     `json:"go_max_procs"`
	Points     []experiment.ScalePoint `json:"points"`
}

// writeScaleBench runs the scale benchmark and records the baseline.
func writeScaleBench(opts experiment.Options) {
	points := experiment.ScaleBench(opts)
	doc := scaleBenchDoc{
		Seed:       opts.Seed,
		Scale:      opts.Scale,
		GoVersion:  runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Points:     points,
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(benchFile, append(buf, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	for _, p := range points {
		fmt.Printf("N=%-6d shards=%d total=%-6d events=%-10d %8.0f events/s  %5.2f allocs/event  pdr %.1f%%\n",
			p.Nodes, p.Shards, p.TotalNodes, p.Events, p.EventsPerSec, p.AllocsPerEvent, 100*p.DeliveryRatio)
	}
	fmt.Printf("wrote %s\n", benchFile)
}

// runScaleMem is the CI scale-mem gate: one full-size N=50000 sweep
// point, measured like a -json run, checked against absolute wall-clock
// and peak-heap-per-node budgets. Unlike -perfsmoke it needs no
// committed baseline — the budgets are structural ceilings, chosen so
// only a scaling regression (memory growing with arena instead of
// occupancy, retained per-packet state) can breach them.
func runScaleMem(opts experiment.Options) error {
	opts.Scale = 1 // the gate always measures the real mega world
	p, err := experiment.ScaleBenchN(opts, scaleMemNodes)
	if err != nil {
		return err
	}
	fmt.Printf("N=%d shards=%d total=%d events=%d wall=%.1fs (budget %.0fs) peak_heap=%.1f MB bytes/node=%.0f (budget %.0f) pdr %.1f%%\n",
		p.Nodes, p.Shards, p.TotalNodes, p.Events, p.WallSeconds, scaleMemWallBudget,
		float64(p.PeakHeapBytes)/(1<<20), p.BytesPerNode, scaleMemByteBudget, 100*p.DeliveryRatio)
	if p.WallSeconds > scaleMemWallBudget {
		return fmt.Errorf("wall-clock budget breached: %.1fs > %.0fs for the N=%d world", p.WallSeconds, scaleMemWallBudget, scaleMemNodes)
	}
	if p.BytesPerNode > scaleMemByteBudget {
		return fmt.Errorf("memory budget breached: %.0f peak heap bytes/node > %.0f for the N=%d world", p.BytesPerNode, scaleMemByteBudget, scaleMemNodes)
	}
	fmt.Println("scale-mem OK")
	return nil
}

// runPerfSmoke measures the perfSmokePoints sweep points and compares
// each against the committed baseline. Per point, the event count must
// match exactly (it is deterministic; a mismatch means the kernel
// changed behavior, not just speed), events/sec must stay within
// perfSmokeTolerance, and allocs/event must stay under the ceiling.
func runPerfSmoke(opts experiment.Options) error {
	buf, err := os.ReadFile(benchFile)
	if err != nil {
		return fmt.Errorf("reading committed baseline: %w", err)
	}
	var doc scaleBenchDoc
	if err := json.Unmarshal(buf, &doc); err != nil {
		return fmt.Errorf("parsing %s: %w", benchFile, err)
	}
	opts.Seed = doc.Seed
	opts.Scale = doc.Scale
	if doc.GoVersion != "" && doc.GoVersion != runtime.Version() {
		log.Printf("warning: baseline recorded with %s, measuring with %s — wall-clock comparison crosses toolchains", doc.GoVersion, runtime.Version())
	}
	if doc.GoMaxProcs != 0 && doc.GoMaxProcs != runtime.GOMAXPROCS(0) {
		log.Printf("warning: baseline recorded at GOMAXPROCS=%d, measuring at %d", doc.GoMaxProcs, runtime.GOMAXPROCS(0))
	}
	for _, nodes := range perfSmokePoints {
		if err := smokeOnePoint(opts, &doc, nodes); err != nil {
			return err
		}
	}
	fmt.Println("perf smoke OK")
	return nil
}

// smokeOnePoint gates one population: every committed shard variant of
// the point is re-measured at its own shard count, compared against its
// committed figures, and all variants — committed and measured — must
// agree on the exact event count (the shard-count-independence
// contract; a drift here means the sharded kernel changed behavior, not
// just speed). Old single-variant baselines (no shards field) degrade
// to the serial-only gate.
func smokeOnePoint(opts experiment.Options, doc *scaleBenchDoc, nodes int) error {
	var variants []*experiment.ScalePoint
	for i := range doc.Points {
		if doc.Points[i].Nodes == nodes {
			variants = append(variants, &doc.Points[i])
		}
	}
	if len(variants) == 0 {
		return fmt.Errorf("%s has no N=%d point", benchFile, nodes)
	}
	var events []uint64
	for _, committed := range variants {
		shards := committed.Shards
		if shards < 1 {
			shards = 1 // pre-shards baseline entry
		}
		opts.Shards = shards
		measured, err := experiment.ScaleBenchN(opts, nodes)
		if err != nil {
			return err
		}
		allocCeiling := committed.AllocsPerEvent*perfSmokeAllocsSlack + perfSmokeAllocsEps
		fmt.Printf("N=%d shards=%d: measured %8.0f events/s (%d events, %.3f allocs/event), committed %8.0f events/s (%d events, %.3f allocs/event), tolerance %.0f%%, alloc ceiling %.3f\n",
			nodes, shards, measured.EventsPerSec, measured.Events, measured.AllocsPerEvent,
			committed.EventsPerSec, committed.Events, committed.AllocsPerEvent,
			100*perfSmokeTolerance, allocCeiling)
		if measured.Events != committed.Events {
			return fmt.Errorf("determinism drift at shards=%d: measured %d events, committed %d — regenerate %s and re-record the experiment tables",
				shards, measured.Events, committed.Events, benchFile)
		}
		if floor := committed.EventsPerSec * (1 - perfSmokeTolerance); measured.EventsPerSec < floor {
			return fmt.Errorf("perf regression at shards=%d: %0.f events/s is below the %.0f floor (committed %.0f - %.0f%%)",
				shards, measured.EventsPerSec, floor, committed.EventsPerSec, 100*perfSmokeTolerance)
		}
		if measured.AllocsPerEvent > allocCeiling {
			return fmt.Errorf("allocation regression at shards=%d: %.3f allocs/event exceeds the %.3f ceiling (committed %.3f x%.1f + %.2f)",
				shards, measured.AllocsPerEvent, allocCeiling, committed.AllocsPerEvent, perfSmokeAllocsSlack, perfSmokeAllocsEps)
		}
		if ceiling := committed.BytesPerNode * perfSmokeBytesSlack; committed.BytesPerNode > 0 && measured.BytesPerNode > ceiling {
			return fmt.Errorf("memory regression at shards=%d: %.0f peak heap bytes/node exceeds the %.0f ceiling (committed %.0f x%.1f)",
				shards, measured.BytesPerNode, ceiling, committed.BytesPerNode, perfSmokeBytesSlack)
		}
		events = append(events, measured.Events)
	}
	for _, e := range events[1:] {
		if e != events[0] {
			return fmt.Errorf("shard-count dependence at N=%d: event counts %v differ across the baseline shard variants", nodes, events)
		}
	}
	return nil
}
