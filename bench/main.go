// Command bench is the repository's benchmark: four workloads over the
// HVDB simulator, end-to-end metrics from timed reps with tracing off,
// and per-layer metrics from a separate traced rep. README.md explains
// the workloads, the metrics and how they should move each other.
//
//	bash bench/run.sh                         # all workloads, e2e set
//	bash bench/run.sh -trace 1                # … then the traced reps
//	bash bench/run.sh -repeat                 # e2e set twice, compared
//	bash bench/run.sh -workload data-1k -seed 7 -seconds 16 -trace 0
//
// With -workload the last line of standard output is one JSON object
// {"correct","attempted","failed","metrics"}: the end-to-end metrics at
// -trace 0, the per-layer metrics at -trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"time"
)

type options struct {
	seed    uint64
	seconds float64
	trace   bool
	quick   bool
	// refOnly: the set is only the reference for a traced run, whose
	// result line carries no e2e metric, so the memory rep is skipped.
	refOnly bool
	outDir  string
	log     io.Writer
}

// e2eResult is one workload's end-to-end outcome: the per-rep samples
// of every metric, and the simulated witness all reps agreed on.
type e2eResult struct {
	wl      *workload
	samples map[string][]float64
	reps    int
	ref     *repResult // first timed rep: the simulated values and digest
}

// opsAttempted and opsFailed count member deliveries of one rep:
// expected, and expected - delivered. They are simulated outcomes (radio
// loss, partitions, churn), exact for a seed and the same on every rep,
// so the counts do not depend on how many reps a run fitted in.
func (r *e2eResult) opsAttempted() int { return r.ref.expected }
func (r *e2eResult) opsFailed() int    { return r.ref.expected - r.ref.delivered }

func (r *e2eResult) median(name string) float64 {
	_, med, _, _ := quartiles(r.samples[name])
	return med
}

// resolved reports whether the metric's quartile spread is inside its
// bound, i.e. whether a difference of one bound can be told from noise.
func (r *e2eResult) resolved(m e2eMetric) bool {
	_, _, _, spread := quartiles(r.samples[m.Name])
	return spread <= m.Bound
}

func main() {
	var (
		o        options
		workload = flag.String("workload", "", "run one workload and print the result as a JSON last line (default: all four, interleaved)")
		trace    = flag.Int("trace", 0, "1: run the traced reps and report the per-layer metrics")
		repeat   = flag.Bool("repeat", false, "run the e2e set twice back to back and compare the two")
		record   = flag.String("record", "", "also write the run's numbers to this JSON file (BASELINE.json is such a record)")
	)
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed: world i gets runner.DeriveSeed(seed, i)")
	flag.Float64Var(&o.seconds, "seconds", 0, "measure each workload for about this many seconds (0: the workload's fixed rep count)")
	flag.BoolVar(&o.quick, "quick", false, "shrink every workload to a sub-second world (smoke runs)")
	flag.StringVar(&o.outDir, "out", "out", "directory for trace-<workload>.json")
	flag.Parse()
	if flag.NArg() > 0 || *trace < 0 || *trace > 1 || o.seconds < 0 {
		flag.Usage()
		os.Exit(2)
	}
	o.trace = *trace == 1
	o.log = os.Stdout

	wls, err := buildWorkloads(o.quick)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(o.log, "# hvdb bench: seed=%d %s gomaxprocs=%d nproc=%d quick=%v\n",
		o.seed, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), o.quick)

	if *workload != "" {
		wl := findWorkload(wls, *workload)
		if wl == nil {
			fatal(fmt.Errorf("unknown workload %q (have %s)", *workload, workloadNames(wls)))
		}
		if err := runOne(wl, o); err != nil {
			json.NewEncoder(o.log).Encode(resultLine{Attempted: 1, Failed: 1, Metrics: map[string]jsonMetric{}})
			fatal(err)
		}
		return
	}

	first, err := runE2E(wls, o)
	if err != nil {
		fatal(err)
	}
	printE2E(o.log, first)
	if *repeat {
		second, err := runE2E(wls, o)
		if err != nil {
			fatal(err)
		}
		printE2E(o.log, second)
		if err := compareSets(o.log, first, second); err != nil {
			fatal(err)
		}
	}
	layers := make([]map[string]float64, len(first))
	if o.trace {
		for i, r := range first {
			if layers[i], err = runTraced(r.wl, o, r); err != nil {
				fatal(err)
			}
			printLayers(o.log, r.wl, layers[i])
		}
	}
	if *record != "" {
		if err := writeRecord(*record, o, first, layers); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench: FAIL:", err)
	os.Exit(1)
}

func workloadNames(wls []*workload) string {
	names := make([]string, len(wls))
	for i, wl := range wls {
		names[i] = wl.name
	}
	return strings.Join(names, ", ")
}

// runE2E takes the end-to-end set: one untimed memory rep per workload
// (it doubles as the process warm-up), then the timed reps, interleaved
// round-robin across workloads so that a slow spell of the shared box
// widens every workload's spread instead of biasing one workload.
func runE2E(wls []*workload, o options) ([]*e2eResult, error) {
	out := make([]*e2eResult, len(wls))
	for i, wl := range wls {
		out[i] = &e2eResult{wl: wl, samples: map[string][]float64{}}
		if o.refOnly {
			continue
		}
		mem, peak, err := memoryRep(wl, o.seed)
		if err != nil {
			return nil, err
		}
		out[i].samples["peak_heap_mb"], out[i].ref = []float64{peak}, mem
	}
	spent := make([]float64, len(wls))
	for {
		ran := false
		for i, wl := range wls {
			if !wantRep(wl, o, out[i].reps, spent[i]) {
				continue
			}
			ran = true
			runtime.GC()
			t0 := time.Now()
			rep, err := runRep(wl, o.seed, 1, nil)
			if err != nil {
				return nil, err
			}
			spent[i] += time.Since(t0).Seconds()
			if err := out[i].add(rep); err != nil {
				return nil, err
			}
		}
		if !ran {
			break
		}
	}
	for _, r := range out {
		if err := r.gate(o); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// wantRep decides whether a workload takes another timed rep: its fixed
// count when -seconds is 0; otherwise as many as fit into -seconds of
// measuring, at least one (a rep that would overrun by more than half
// its length is not started). done and spent are the workload's own
// timed reps and the host time they took, so a workload that has stopped
// stays stopped.
func wantRep(wl *workload, o options, done int, spent float64) bool {
	if o.seconds == 0 {
		return done < wl.reps
	}
	return done < 1 || spent+spent/float64(done)/2 <= o.seconds
}

// add records one timed rep. The first rep after the memory rep becomes
// the reference; every later one must reproduce its digest exactly.
func (r *e2eResult) add(rep *repResult) error {
	if r.reps == 0 {
		if r.ref != nil && rep.outcome != r.ref.outcome {
			return fmt.Errorf("%s: memory rep delivered %d/%d, timed rep %d/%d: the per-second hook changed the simulated outcome",
				r.wl.name, r.ref.delivered, r.ref.expected, rep.delivered, rep.expected)
		}
		r.ref = rep
	} else if rep.digest != r.ref.digest {
		return fmt.Errorf("%s: rep %d has sim_digest %016x, rep 1 had %016x: the simulation does not repeat",
			r.wl.name, r.reps+1, rep.digest, r.ref.digest)
	}
	r.reps++
	for name, v := range rep.e2e() {
		r.samples[name] = append(r.samples[name], v)
	}
	return nil
}

// gate runs the checks that need the whole set.
func (r *e2eResult) gate(o options) error {
	if want := r.wl.eventsAtSeed1; want != 0 && o.seed == 1 && r.ref.eventsTotal != want {
		return fmt.Errorf("%s executed %d events at -seed 1, the committed record has %d", r.wl.name, r.ref.eventsTotal, want)
	}
	for _, m := range e2eMetrics {
		for _, v := range r.samples[m.Name] {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("%s: %s is %v", r.wl.name, m.Name, v)
			}
		}
	}
	return nil
}

func printE2E(w io.Writer, set []*e2eResult) {
	for _, r := range set {
		fmt.Fprintf(w, "\nworkload %s  reps=%d  ops_attempted=%d ops_failed=%d  sim_digest=%016x\n",
			r.wl.name, r.reps, r.opsAttempted(), r.opsFailed(), r.ref.digest)
		fmt.Fprintf(w, "#   simulated, exact for the seed: delay_p50_ms=%.6g delay_p95_ms=%.6g jain=%.6g sent=%d stale=%d\n",
			r.ref.p50ms, r.ref.p95ms, r.ref.jain, r.ref.sent, r.ref.stale)
		fmt.Fprintf(w, "  %-22s %-9s %-7s %6s  %14s %14s %14s %8s\n", "metric", "unit", "better", "bound", "median", "q1", "q3", "spread")
		for _, m := range e2eMetrics {
			q1, med, q3, spread := quartiles(r.samples[m.Name])
			note := ""
			if !r.resolved(m) {
				note = "  unresolved"
			}
			fmt.Fprintf(w, "  %-22s %-9s %-7s %5.1f%%  %14.6g %14.6g %14.6g %7.2f%%  n=%d%s\n",
				m.Name, m.Unit, m.Better, 100*m.Bound, med, q1, q3, 100*spread, len(r.samples[m.Name]), note)
		}
	}
}

func printLayers(w io.Writer, wl *workload, layers map[string]float64) {
	fmt.Fprintf(w, "\nworkload %s  per-layer metrics (one traced rep)\n", wl.name)
	for _, m := range layerMetrics {
		fmt.Fprintf(w, "  %-34s %-6s %-7s %16.6g   moves %s on %s\n", m.Name, m.Unit, m.Better, layers[m.Name], m.Moves, m.On)
	}
}

// compareSets is the run-to-run acceptance check: two sets of runs of
// one program. Simulated metrics, ops counts and digests must be
// identical; a resolved host metric may not differ by more than its
// bound; an unresolved one is reported with its spread and passes.
func compareSets(w io.Writer, a, b []*e2eResult) error {
	var bad []string
	fmt.Fprintf(w, "\nrepeat: first set vs second set\n")
	fmt.Fprintf(w, "  %-10s %-22s %14s %14s %8s %6s\n", "workload", "metric", "first", "second", "diff", "bound")
	for i := range a {
		ra, rb := a[i], b[i]
		if ra.ref.digest != rb.ref.digest || ra.opsAttempted() != rb.opsAttempted() || ra.opsFailed() != rb.opsFailed() {
			bad = append(bad, ra.wl.name+"/sim_digest")
		}
		for _, m := range e2eMetrics {
			ma, mb := ra.median(m.Name), rb.median(m.Name)
			diff := 0.0
			if ma != mb {
				diff = math.Abs(mb-ma) / math.Abs(ma)
			}
			verdict := "ok"
			switch {
			case m.Sim && ma != mb:
				verdict = "DIFFERS"
				bad = append(bad, ra.wl.name+"/"+m.Name)
			case m.Sim:
			case !ra.resolved(m) || !rb.resolved(m):
				_, _, _, sa := quartiles(ra.samples[m.Name])
				_, _, _, sb := quartiles(rb.samples[m.Name])
				verdict = fmt.Sprintf("unresolved (spreads %.1f%%, %.1f%%)", 100*sa, 100*sb)
			case diff > m.Bound:
				verdict = "OUT OF BOUND"
				bad = append(bad, ra.wl.name+"/"+m.Name)
			}
			fmt.Fprintf(w, "  %-10s %-22s %14.6g %14.6g %7.2f%% %5.1f%%  %s\n", ra.wl.name, m.Name, ma, mb, 100*diff, 100*m.Bound, verdict)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("repeat: two sets of runs of the same code disagree on %s", strings.Join(bad, ", "))
	}
	return nil
}

// writeRecord saves a run as JSON: the environment it ran in, each
// workload's end-to-end medians with quartiles and rep counts, and the
// traced rep's per-layer values with the metric and workload each is
// expected to move.
func writeRecord(path string, o options, set []*e2eResult, layers []map[string]float64) error {
	type e2eRow struct {
		Unit, Better   string
		Bound          float64
		Median, Q1, Q3 float64
		N              int
		Resolved       bool
	}
	type layerRow struct {
		Unit, Better, Moves, On string
		Value                   float64
	}
	type wlRow struct {
		Name, Why               string
		Reps                    int
		SimDigest               string
		OpsAttempted, OpsFailed int
		EndToEnd                map[string]e2eRow
		PerLayer                map[string]layerRow `json:",omitempty"`
	}
	doc := struct {
		Seed       uint64
		GoVersion  string
		GoMaxProcs int
		NProc      int
		Workloads  []wlRow
	}{Seed: o.seed, GoVersion: runtime.Version(), GoMaxProcs: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU()}
	for i, r := range set {
		row := wlRow{
			Name: r.wl.name, Why: r.wl.why, Reps: r.reps, SimDigest: fmt.Sprintf("%016x", r.ref.digest),
			OpsAttempted: r.opsAttempted(), OpsFailed: r.opsFailed(), EndToEnd: map[string]e2eRow{},
		}
		for _, m := range e2eMetrics {
			q1, med, q3, _ := quartiles(r.samples[m.Name])
			row.EndToEnd[m.Name] = e2eRow{m.Unit, m.Better, m.Bound, med, q1, q3, len(r.samples[m.Name]), r.resolved(m)}
		}
		if layers[i] != nil {
			row.PerLayer = map[string]layerRow{}
			for _, m := range layerMetrics {
				row.PerLayer[m.Name] = layerRow{m.Unit, m.Better, m.Moves, m.On, layers[i][m.Name]}
			}
		}
		doc.Workloads = append(doc.Workloads, row)
	}
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// jsonMetric is one value of the result line.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// runOne is the single-workload form the benchmark driver calls. An
// operation is one expected member delivery: attempted and failed are
// ops_attempted and ops_failed, so a change that loses deliveries shows
// as more failed operations on the same seed. A world that aborts (a
// build error, a teardown or digest gate) is an error here, and main
// turns it into a correct:false line and a non-zero exit.
func runOne(wl *workload, o options) error {
	set, err := runE2E([]*workload{wl}, withTraceBudget(o))
	if err != nil {
		return err
	}
	r := set[0]
	line := resultLine{Correct: true, Attempted: r.opsAttempted(), Failed: r.opsFailed(), Metrics: map[string]jsonMetric{}}
	if o.trace {
		layers, err := runTraced(wl, o, r)
		if err != nil {
			return err
		}
		printLayers(o.log, wl, layers)
		for _, m := range layerMetrics {
			line.Metrics[m.Name] = jsonMetric{layers[m.Name], m.Unit}
		}
	} else {
		printE2E(o.log, set)
		for _, m := range e2eMetrics {
			line.Metrics[m.Name] = jsonMetric{r.median(m.Name), m.Unit}
		}
	}
	return json.NewEncoder(o.log).Encode(line)
}

// withTraceBudget gives a traced run's untraced reference reps a
// quarter of the measuring time and drops their memory rep; the traced
// reps and drills take the rest.
func withTraceBudget(o options) options {
	if o.trace {
		o.seconds /= 4
		o.refOnly = true
	}
	return o
}
