// Command hvdbbench regenerates the paper's figures and claim
// evaluations. Run with no flags to execute every experiment at full
// size, or select one with -exp.
//
//	hvdbbench               # all experiments, full size
//	hvdbbench -exp f4       # just the Figure 4 experiment
//	hvdbbench -quick        # reduced sizes (smoke test)
//	hvdbbench -parallel 8   # fan runs over 8 workers (same tables)
//	hvdbbench -list         # list experiment IDs
//	hvdbbench -json         # the scale sweep's rows as JSON (BENCH_scale.json)
//	hvdbbench -maxnodes 1000000 -exp scale   # include the 1M point
//	hvdbbench -cpuprofile cpu.pprof -exp scale   # profile a run
//
// Independent runs inside each experiment (trials, sweep points,
// protocol arms) are fanned across -parallel workers with per-run seeds
// derived positionally from -seed, so standard output is a pure
// function of the remaining flags: two runs cmp equal at any -parallel
// or -shards. Each experiment's elapsed time goes to standard error;
// every other host-side measurement (wall clock, allocations, heap) is
// bench/'s — see bench/README.md.
//
// -json prints the scale sweep (the worlds and seeds of -exp scale) as
// the document BENCH_scale.json commits; redirect it there to
// re-record. -maxnodes raises the sweep's population cap past the 100k
// default; populations ascend, so the cap only adds or drops trailing
// rows.
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

func main() {
	var (
		exp        = flag.String("exp", "", "experiment ID to run (default: all)")
		quick      = flag.Bool("quick", false, "run reduced configurations")
		seed       = flag.Uint64("seed", 1, "PRNG seed")
		parallel   = flag.Int("parallel", 0, "max concurrent runs per experiment (0 = GOMAXPROCS); tables are identical at every setting")
		list       = flag.Bool("list", false, "list experiments and exit")
		csv        = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		jsonOut    = flag.Bool("json", false, "print the scale sweep's rows as JSON (the BENCH_scale.json document) instead of tables")
		shards     = flag.Int("shards", 1, "shard count for the scale-family worlds (1 = serial kernel); tables and event counts are identical at every setting")
		maxNodes   = flag.Int("maxnodes", 0, "cap the scale sweep's population (0 = the 100k default); 1000000 adds the 1M point")
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

	if *jsonOut {
		if *exp != "" || *csv {
			log.Fatal("-json prints only the scale sweep; it cannot combine with -exp or -csv")
		}
		buf, err := json.MarshalIndent(experiment.RecordScale(opts), "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s\n", buf)
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
		log.Printf("%s took %s", id, time.Since(start).Round(time.Millisecond))
		fmt.Printf("### %s — %s\n\n", id, experiment.Title(id))
		for _, t := range tables {
			if *csv {
				fmt.Printf("## %s: %s\n%s\n", t.ID, t.Title, t.CSV())
			} else {
				fmt.Println(t)
			}
		}
	}
}
