// Command hvdbsim runs simulation scenarios from flags and reports
// delivery and overhead metrics. Any protocol arm can be driven
// (-protocol), either with the default CBR workload or with a scripted
// dynamic scenario (-script): a built-in script name or a JSON script
// file with timed node churn, membership churn, traffic generators,
// radio degradation, and partition windows (see DESIGN.md "Protocol
// plane & scenario scripts" for the grammar).
//
// A single trial prints the full metric breakdown, ending with the
// traffic phase's packet drops by cause. With -trials N the
// scenario is replicated N times with positionally derived seeds
// (runner.DeriveSeed, so trial i sees the same world at any worker
// count) and the trials are fanned across -parallel workers; the output
// is then a per-metric mean with its 95% confidence half-width.
//
// With -fuzz N the tool switches to a scenario-fuzzing campaign
// (internal/scengen): N generated scripts are invariant-checked on
// worlds built from the same flags, every failure is shrunk to a
// minimal script written under -fuzzout, and the exit status is 1 if
// any invariant broke. Campaigns are deterministic in -fuzzseed, so a
// CI failure replays anywhere from the seed alone.
//
// Example:
//
//	hvdbsim -nodes 300 -groups 2 -members 12 -speed 10 -packets 30
//	hvdbsim -nodes 300 -trials 16 -parallel 4
//	hvdbsim -protocol spbm -script churn-storm
//	hvdbsim -protocol cbt -script my-scenario.json -trials 8
//	hvdbsim -fuzz 500 -fuzzseed 7 -nodes 60 -loss 0.05
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/cliflag"
	"repro/internal/des"
	"repro/internal/hypercube"
	"repro/internal/membership"
	"repro/internal/protocol"
	"repro/internal/radio"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/scengen"
	"repro/internal/stats"
)

func main() {
	var (
		seed     = flag.Uint64("seed", 1, "PRNG seed")
		arena    = flag.Float64("arena", 2000, "arena side in meters")
		cell     = flag.Float64("cell", 250, "virtual circle tile side in meters")
		dim      = flag.Int("dim", 4, "hypercube dimension")
		nodes    = flag.Int("nodes", 200, "ordinary mobile nodes")
		groups   = flag.Int("groups", 1, "multicast groups")
		members  = flag.Int("members", 10, "members per group")
		speed    = flag.Float64("speed", 5, "max node speed m/s (0 = static)")
		packets  = flag.Int("packets", 20, "data packets per group (CBR mode; ignored with -script)")
		payload  = flag.Int("payload", 512, "payload bytes per packet (CBR mode)")
		warm     = flag.Float64("warmup", 15, "warm-up simulated seconds")
		loss     = flag.Float64("loss", 0, "per-transmission loss probability")
		proto    = flag.String("protocol", "hvdb", "protocol arm to drive (see -protocol help below)")
		script   = flag.String("script", "", "scripted scenario: a built-in name or a JSON script file")
		trials   = flag.Int("trials", 1, "independent trials (seeds derived per trial)")
		parallel = flag.Int("parallel", 0, "max concurrent trials (0 = GOMAXPROCS)")
		fuzzN    = flag.Int("fuzz", 0, "fuzz mode: generate and invariant-check this many scripts (see -fuzzseed, -fuzzout)")
		fuzzSeed = flag.Uint64("fuzzseed", 1, "campaign base seed for -fuzz (same seed: same scripts, same verdicts)")
		fuzzOut  = flag.String("fuzzout", ".", "directory for minimized failing scripts written by -fuzz")
		shards   = flag.Int("shards", 1, "shard count for the sharded event kernel (1 = serial); results are identical at every setting")
	)
	cli := cliflag.Parse("hvdbsim")

	// Range-check the numeric flags up front: a bad value must exit 2
	// with a usage hint, not panic in a constructor or spin in a
	// degenerate run loop.
	cli.Min(1, "nodes", "groups", "members", "trials", "dim", "packets", "payload", "shards")
	cli.Min(0, "warmup", "parallel", "fuzz")
	cli.Max(hypercube.MaxDim, "dim")
	cli.Max(cliflag.MaxWarmup, "warmup")
	cli.Max(cliflag.MaxPackets, "packets")
	cli.Max(cliflag.MaxTrials, "trials")
	if !(0 <= *loss && *loss <= 1) { // negated, so NaN fails closed
		cli.Fail("-loss must be within [0,1] (got %g)", *loss)
	}
	cli.WarnShards(*shards)
	if *fuzzN > 0 && *script != "" {
		cli.Fail("-fuzz generates its own scripts; it is mutually exclusive with -script")
	}

	if !slices.Contains(protocol.Names(), *proto) {
		fmt.Fprintf(os.Stderr, "hvdbsim: unknown protocol %q\nusage: -protocol takes one of: %s\n",
			*proto, strings.Join(protocol.Names(), ", "))
		os.Exit(2)
	}

	var sc *scenario.Script
	if *script != "" {
		var err error
		sc, err = loadScript(*script)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hvdbsim: %v\nusage: -script takes a built-in name (%s) or a JSON script file\n",
				err, strings.Join(scenario.BuiltinScripts(), ", "))
			os.Exit(2)
		}
	}

	baseSpec := scenario.DefaultSpec()
	baseSpec.Seed = *seed
	baseSpec.ArenaSize = *arena
	baseSpec.CellSize = *cell
	baseSpec.Dim = *dim
	baseSpec.Nodes = *nodes
	baseSpec.Groups = *groups
	baseSpec.MembersPerGroup = *members
	baseSpec.LossProb = *loss
	baseSpec.Shards = *shards
	if *speed <= 0 {
		baseSpec.Mobility = scenario.Static
	} else {
		baseSpec.Mobility = scenario.Waypoint
		baseSpec.MinSpeed = 1
		baseSpec.MaxSpeed = *speed
	}
	// -arena and -cell, and the ceilings that span flags (-arena over
	// -cell, -groups x -members), are the spec's to judge.
	if err := baseSpec.Validate(); err != nil {
		cli.Fail("%v", err)
	}

	if *fuzzN > 0 {
		os.Exit(runFuzz(baseSpec, *proto, *fuzzN, *fuzzSeed, *fuzzOut, *warm))
	}

	cfg := trialConfig{
		proto: *proto, script: sc,
		warm: *warm, packets: *packets, payload: *payload,
	}

	if *trials <= 1 {
		res, err := runTrial(baseSpec, cfg, true)
		if err != nil {
			log.Fatal(err)
		}
		printSingle(res)
		return
	}

	results, err := runner.Map(runner.Config{Workers: *parallel}, *seed, *trials,
		func(r runner.Run) (trialResult, error) {
			spec := baseSpec
			spec.Seed = r.Seed
			return runTrial(spec, cfg, false)
		})
	if err != nil {
		log.Fatal(err)
	}
	printAggregate(*seed, results)
}

// runFuzz drives a scenario-fuzzing campaign: n generated scripts are
// invariant-checked (internal/scengen) on worlds built from the flag
// spec, each failure is shrunk and written as replayable JSON under
// outDir, and the returned exit status is 1 when any invariant broke.
func runFuzz(spec scenario.Spec, arm string, n int, seed uint64, outDir string, warm float64) int {
	prof := scengen.DefaultProfile()
	prof.Groups = spec.Groups // scripts may reference every flag-built group
	res := scengen.Campaign(scengen.CampaignConfig{
		Check:       fuzzCheck(spec, arm, warm),
		Profile:     prof,
		Seed:        seed,
		Scripts:     n,
		MaxFailures: 3,
		Log:         log.Printf,
	})
	if len(res.Failures) == 0 {
		fmt.Printf("fuzz: %d scripts checked on arm %s, no invariant violations (base seed %#x)\n",
			res.Scripts, arm, seed)
		return 0
	}
	for _, f := range res.Failures {
		min := f.Minimized
		if min == nil {
			min = f.Script
		}
		path := filepath.Join(outDir, fmt.Sprintf("scengen-fail-%016x.json", f.GenSeed))
		if err := os.WriteFile(path, scengen.ScriptJSON(min), 0o644); err != nil {
			log.Printf("writing %s: %v", path, err)
			path = "(not written)"
		}
		fmt.Printf("\nfuzz FAILURE at script %d:\n%s\nminimized script: %s\nreplay: hvdbsim -protocol %s -seed %#x -script %s\n",
			f.Index, f.Report, path, arm, f.WorldSeed, path)
	}
	fmt.Printf("\nfuzz: %d of %d scripts violated invariants (base seed %#x)\n",
		len(res.Failures), res.Scripts, seed)
	return 1
}

// fuzzCheck is the invariant set of a -fuzz campaign: the smoke
// campaign's, shard-count independence at 2 and 4 shards included.
func fuzzCheck(spec scenario.Spec, arm string, warm float64) scengen.CheckConfig {
	return scengen.CheckConfig{
		Spec: spec, Warmup: des.Duration(warm), Arms: []string{arm},
		Workers: 4, Shards: []int{2, 4},
	}
}

// loadScript resolves a -script argument: a built-in script name first,
// then a JSON file path.
func loadScript(arg string) (*scenario.Script, error) {
	if s, err := scenario.BuiltinScript(arg); err == nil {
		return s, nil
	}
	data, err := os.ReadFile(arg)
	if err != nil {
		return nil, fmt.Errorf("unknown built-in script and unreadable file: %v", err)
	}
	return scenario.ParseScript(data)
}

// trialConfig is the per-trial workload selection.
type trialConfig struct {
	proto   string
	script  *scenario.Script
	warm    float64
	packets int
	payload int
}

// trialResult is everything one scenario run reports: the traffic
// phase's meter counts (scripted or CBR, the same accounting) plus the
// world-level figures around them.
type trialResult struct {
	scenario.Counts
	desc                string
	grid                string
	proto               string
	script              string
	endTime             float64
	dataBytes           uint64
	energyJ, energyMaxJ float64
}

// runTrial builds one world, drives the warm-up and traffic phases
// through the selected protocol arm, and collects the metrics. Each
// call owns its world and simulator, so trials can run concurrently.
func runTrial(spec scenario.Spec, cfg trialConfig, verbose bool) (trialResult, error) {
	w, err := scenario.Build(spec)
	if err != nil {
		return trialResult{}, err
	}
	if spec.Shards > 1 && w.Eng == nil {
		log.Printf("warning: sharding declined, running serial: %s", w.ShardNote)
	}
	stk, err := w.Protocol(cfg.proto)
	if err != nil {
		return trialResult{}, err
	}

	res := trialResult{
		desc:  fmt.Sprint(w.Net),
		proto: cfg.proto,
		grid: fmt.Sprintf("grid %dx%d VCs, %d hypercubes of dim %d",
			w.Grid.Cols(), w.Grid.Rows(), w.Scheme.NumHypercubes(), w.Scheme.Dim()),
	}

	stk.Start()
	w.WarmUp(des.Duration(cfg.warm))
	if verbose {
		fmt.Printf("%s | %s | protocol %s\n", res.desc, res.grid, cfg.proto)
		fmt.Printf("warm-up done at t=%.1fs: %d clusters headed\n", float64(w.Sim.Now()), len(w.CM.HeadSlots()))
	}
	if cfg.script != nil {
		res.script = cfg.script.Name
		res.Counts, err = w.RunScript(stk, cfg.script)
		if err != nil {
			return trialResult{}, err
		}
	} else {
		// Traffic phase: CBR per group from a random source, then a
		// drain that is also the meter's release window.
		const gap, drain des.Duration = 0.5, 5
		m := w.Meter(stk, drain)
		for g := 0; g < spec.Groups; g++ {
			g := membership.Group(g)
			src := w.RandomSource()
			w.CBR(func() uint64 { return m.Send(src, g, cfg.payload) }, gap, cfg.packets)
		}
		w.RunUntil(w.Sim.Now() + des.Duration(cfg.packets)*gap + drain)
		res.Counts = m.Close()
	}
	stk.Stop()

	res.endTime = float64(w.Sim.Now())
	res.dataBytes = w.Net.Stats().DataBytes
	for _, n := range w.Net.Nodes() {
		j := radio.DefaultEnergy.Consumed(n.TxBytes, n.RxBytes())
		res.energyJ += j
		if j > res.energyMaxJ {
			res.energyMaxJ = j
		}
	}
	return res, nil
}

func printSingle(r trialResult) {
	if r.script != "" {
		fmt.Printf("\nscript %q results at t=%.1fs:\n", r.script, r.endTime)
	} else {
		fmt.Printf("\nresults at t=%.1fs:\n", r.endTime)
	}
	if r.Expected > 0 {
		fmt.Printf("  delivery ratio      %.1f%% (%d of %d member deliveries)\n",
			100*r.PDR(), r.Delivered, r.Expected)
	}
	if r.Stale > 0 {
		fmt.Printf("  stale deliveries    %d (to members that had left)\n", r.Stale)
	}
	fmt.Printf("  mean delay          %.2f ms (p95 %.2f ms)\n", r.MeanDelay*1000, r.P95Delay*1000)
	fmt.Printf("  control overhead    %.0f bytes/node/s\n", r.CtrlPerNodeS)
	fmt.Printf("  data traffic        %d bytes total\n", r.dataBytes)
	fmt.Printf("  forwarding fairness %.3f (Jain index)\n", r.Jain)
	fmt.Printf("  radio energy        %.3f J total, %.3f J at the busiest node\n", r.energyJ, r.energyMaxJ)
	fmt.Printf("  cluster stability   %d CH changes over %d elections\n", r.CHChanges, r.Elections)
	causes := scenario.DropCauses()
	for i, n := range r.Drops {
		causes[i] += fmt.Sprintf(" %d", n)
	}
	fmt.Printf("  packet drops        %s\n", strings.Join(causes[:], ", "))
}

func printAggregate(seed uint64, results []trialResult) {
	fmt.Printf("%s | %s | protocol %s\n", results[0].desc, results[0].grid, results[0].proto)
	if s := results[0].script; s != "" {
		fmt.Printf("script %q\n", s)
	}
	fmt.Printf("%d trials, seeds derived from base %d\n\n", len(results), seed)

	metric := func(name, unit string, get func(trialResult) float64) {
		xs := make([]float64, len(results))
		for i, r := range results {
			xs[i] = get(r)
		}
		mean, half := stats.MeanCI(xs)
		if unit != "" {
			unit = " " + unit
		}
		fmt.Printf("  %-19s %.3f ± %.3f%s\n", name, mean, half, unit)
	}
	anyExpected := false
	for _, r := range results {
		if r.Expected > 0 {
			anyExpected = true
			break
		}
	}
	if anyExpected {
		metric("delivery ratio", "%", func(r trialResult) float64 { return 100 * r.PDR() })
	}
	if results[0].script != "" {
		metric("stale deliveries", "", func(r trialResult) float64 { return float64(r.Stale) })
	}
	metric("mean delay", "ms", func(r trialResult) float64 { return r.MeanDelay * 1000 })
	metric("p95 delay", "ms", func(r trialResult) float64 { return r.P95Delay * 1000 })
	metric("control overhead", "B/node/s", func(r trialResult) float64 { return r.CtrlPerNodeS })
	metric("forwarding fairness", "(Jain)", func(r trialResult) float64 { return r.Jain })
	metric("radio energy", "J", func(r trialResult) float64 { return r.energyJ })
	metric("CH changes", "", func(r trialResult) float64 { return float64(r.CHChanges) })
	fmt.Printf("\n(± is the 95%% confidence half-width over %d trials)\n", len(results))
}
