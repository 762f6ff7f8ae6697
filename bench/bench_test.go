package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"
	"time"
)

// declared mirrors BENCHMARK.json.
type declared struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return d
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestDeclaredSetsMatchBenchmarkJSON pins the benchmark's own tables to
// BENCHMARK.json: same workloads and reasons, same end-to-end metrics
// with unit, direction and bound, same per-layer metrics, inside the
// contract's limits.
func TestDeclaredSetsMatchBenchmarkJSON(t *testing.T) {
	d := readDeclared(t)
	wls, err := buildWorkloads(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Workloads) != len(wls) || len(wls) < 2 || len(wls) > 8 {
		t.Fatalf("BENCHMARK.json declares %d workloads, the command has %d (want 2..8)", len(d.Workloads), len(wls))
	}
	for i, wl := range wls {
		if d.Workloads[i].Name != wl.name || d.Workloads[i].Why != wl.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the command has %q (%q)", i, d.Workloads[i].Name, d.Workloads[i].Why, wl.name, wl.why)
		}
		if len(wl.why) > 200 || strings.Contains(wl.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", wl.name, len(wl.why))
		}
	}
	if len(d.EndToEnd) != len(e2eMetrics) || len(e2eMetrics) > 16 {
		t.Fatalf("BENCHMARK.json declares %d end-to-end metrics, the command has %d (want <= 16)", len(d.EndToEnd), len(e2eMetrics))
	}
	seen := map[string]bool{}
	check := func(name, unit, better string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("metric name %q is malformed or used twice", name)
		}
		seen[name] = true
		if !unitRE.MatchString(unit) {
			t.Errorf("%s: unit %q is malformed", name, unit)
		}
		if better != "lower" && better != "higher" {
			t.Errorf("%s: better is %q", name, better)
		}
	}
	setup := false
	for i, m := range e2eMetrics {
		got := d.EndToEnd[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better || got.Bound != m.Bound {
			t.Errorf("e2e metric %d: BENCHMARK.json has %+v, the command has %s [%s, %s, %g]", i, got, m.Name, m.Unit, m.Better, m.Bound)
		}
		check(m.Name, m.Unit, m.Better)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s [s, lower] among the end-to-end metrics")
	}
	if len(d.PerLayer) != len(layerMetrics) || len(layerMetrics) > 128 {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, the command has %d (want <= 128)", len(d.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		if got := d.PerLayer[i]; got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the command has %s [%s, %s]", i, got, m.Name, m.Unit, m.Better)
		}
		check(m.Name, m.Unit, m.Better)
	}
	for layer := range cpuLayers {
		if !seen[layer+".cpu_share"] {
			t.Errorf("cpu layer %q has no declared %s.cpu_share", layer, layer)
		}
	}
}

// printedNames pulls the names out of the command's tables: workload
// headers, and the first column of every metric row.
func printedNames(out string) (workloads, metrics []string) {
	uniq := map[string]bool{}
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) >= 2 && f[0] == "workload":
			if !uniq["w "+f[1]] {
				uniq["w "+f[1]] = true
				workloads = append(workloads, f[1])
			}
		case strings.HasPrefix(line, "  ") && len(f) > 3 && f[0] != "metric":
			if !uniq[f[0]] {
				uniq[f[0]] = true
				metrics = append(metrics, f[0])
			}
		}
	}
	return
}

// TestQuickSmoke runs the command's whole path on sub-second worlds: the
// end-to-end set on all four workloads, then one traced rep, and holds
// what it prints against what BENCHMARK.json declares.
func TestQuickSmoke(t *testing.T) {
	d := readDeclared(t)
	wls, err := buildWorkloads(true)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	o := options{seed: 1, quick: true, outDir: t.TempDir(), log: &out}
	set, err := runE2E(wls, o)
	if err != nil {
		t.Fatal(err)
	}
	printE2E(&out, set)
	for _, r := range set {
		for _, m := range e2eMetrics {
			vals := r.samples[m.Name]
			if len(vals) == 0 {
				t.Errorf("%s: no value for %s", r.wl.name, m.Name)
			}
			for _, v := range vals {
				if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
					t.Errorf("%s: %s = %v, want finite and above 0", r.wl.name, m.Name, v)
				}
			}
		}
	}
	gotW, gotM := printedNames(out.String())
	var wantW, wantM []string
	for _, w := range d.Workloads {
		wantW = append(wantW, w.Name)
	}
	for _, m := range d.EndToEnd {
		wantM = append(wantM, m.Name)
	}
	if strings.Join(gotW, " ") != strings.Join(wantW, " ") {
		t.Errorf("printed workloads %v, BENCHMARK.json declares %v", gotW, wantW)
	}
	if strings.Join(gotM, " ") != strings.Join(wantM, " ") {
		t.Errorf("printed e2e metrics %v, BENCHMARK.json declares %v", gotM, wantM)
	}

	traced := set[1:2] // data-1k; every workload when not -short
	if !testing.Short() {
		traced = set
	}
	for _, r := range traced {
		layers, err := runTraced(r.wl, o, r)
		if err != nil {
			t.Fatal(err)
		}
		out.Reset()
		printLayers(&out, r.wl, layers)
		_, gotL := printedNames(out.String())
		var wantL []string
		for _, m := range d.PerLayer {
			wantL = append(wantL, m.Name)
		}
		if strings.Join(gotL, " ") != strings.Join(wantL, " ") {
			t.Errorf("%s: printed per-layer metrics %v, BENCHMARK.json declares %v", r.wl.name, gotL, wantL)
		}
		declared := map[string]bool{}
		for _, m := range layerMetrics {
			declared[m.Name] = true
		}
		var stray []string
		for name := range layers {
			if !declared[name] {
				stray = append(stray, name)
			}
		}
		sort.Strings(stray)
		if len(stray) > 0 {
			t.Errorf("%s: traced rep produced undeclared metrics %v", r.wl.name, stray)
		}
		if _, err := os.Stat(o.outDir + "/trace-" + r.wl.name + ".json"); err != nil {
			t.Errorf("%s: %v", r.wl.name, err)
		}
	}
}

// spin burns CPU in this package; sha256 burns it in another. The two
// loops are the "synthetic two-package" program of the reader's test.
//
//go:noinline
func spin(d time.Duration) uint64 {
	var x uint64 = 1
	for t0 := time.Now(); time.Since(t0) < d; {
		for i := 0; i < 1<<16; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

func TestPprofReader(t *testing.T) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skip("cpu profiling unavailable:", err)
	}
	block := make([]byte, 1<<20)
	sum := spin(300 * time.Millisecond)
	for t0 := time.Now(); time.Since(t0) < 300*time.Millisecond; {
		block[0] = sha256.Sum256(block)[0]
	}
	pprof.StopCPUProfile()
	sink += int(sum) + int(block[0])

	samples, err := parseProfile(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	// The hash's block function lives in crypto/sha256 or, from go1.24,
	// in crypto/internal/fips140/sha256: match the last path element.
	flat := map[string]int64{}
	var total int64
	for _, s := range samples {
		if len(s.stack) == 0 {
			t.Fatal("sample with an empty stack")
		}
		pkg := packageOf(s.stack[0])
		flat[pkg[strings.LastIndexByte(pkg, '/')+1:]] += s.count
		total += s.count
	}
	if total < 20 {
		t.Skipf("only %d samples in 600 ms: profiling timer not delivering here", total)
	}
	for _, pkg := range []string{"bench", "sha256"} {
		if share := float64(flat[pkg]) / float64(total); share < 0.2 {
			t.Errorf("package %s holds %.0f%% of %d flat samples, want about half (have %v)", pkg, 100*share, total, flat)
		}
	}

	// Folded by layer, every sample lands in exactly one bucket: spin is
	// outside every declared layer, sha256 is a library callee of it.
	shares := foldByLayer(samples, cpuLayers)
	var one float64
	for _, s := range shares {
		one += s
	}
	if math.Abs(one-1) > 1e-9 || shares["other"] < 0.8 {
		t.Errorf("layer shares %v: want a sum of 1 with nearly all of it in other", shares)
	}

	// The harness's own frames and stacks that never passed through a
	// layer are other's, whatever sits at the root of the stack.
	for layer, stack := range map[string][]string{
		"georoute": {"sort.insertionSort", "sort.Sort", "repro/internal/georoute.(*Router).next", "main.runCell", "main.main", "runtime.main"},
		"runtime":  {"runtime.mallocgc", "main.runCell", "main.main", "runtime.main"},
		"other":    {"time.Now", "main.(*tracer).second", "repro/internal/des.(*Simulator).Step", "main.runCell", "main.main", "runtime.main"},
	} {
		if got := foldByLayer([]stackSample{{stack: stack, count: 1}}, cpuLayers); got[layer] != 1 {
			t.Errorf("stack %v folds to %v, want all of it in %s", stack, got, layer)
		}
	}

	for sym, want := range map[string]string{
		"repro/internal/des.(*Simulator).Step":                        "repro/internal/des",
		"runtime.mallocgc":                                            "runtime",
		"repro/internal/route.(*Memo[go.shape.struct { A int }]).Get": "repro/internal/route",
		"repro/internal/scenario.(*World).CBR.func1":                  "repro/internal/scenario",
		"internal/runtime/maps.(*Map).getWithKey":                     "internal/runtime/maps",
		"sort.Slice": "sort",
	} {
		if got := packageOf(sym); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", sym, got, want)
		}
	}
	if _, err := parseProfile([]byte("not gzip")); err == nil {
		t.Error("parseProfile accepted garbage")
	}
}
