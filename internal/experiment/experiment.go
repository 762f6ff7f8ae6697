package experiment

import (
	"fmt"
	"sort"

	"repro/internal/des"
	"repro/internal/network"
	"repro/internal/runner"
	"repro/internal/scenario"
)

// Options control experiment size. Scale 1 runs the full configuration
// reported in EXPERIMENTS.md; Scale < 1 selects the reduced
// configuration used by unit tests and quick benchmark runs.
type Options struct {
	Seed  uint64
	Scale float64
	// Workers caps how many independent runs (trials, sweep points,
	// protocol arms) execute concurrently; 0 means GOMAXPROCS. Tables
	// are byte-identical at every worker count for a given seed: each
	// run derives its PRNG stream positionally from the seed (see
	// runner.DeriveSeed) and results are collected in run order.
	Workers int
	// Shards > 1 runs the scale-family worlds on the sharded event
	// kernel (scenario.Spec.Shards). Tables and event counts are
	// byte-identical at every setting — sharding only changes wall
	// clock — and a world that declines sharding is a hard error here,
	// so a benchmark can never silently measure the serial path.
	Shards int
	// MaxNodes caps the population of the scale sweep; 0 means
	// DefaultMaxNodes (100k). The sweep's node counts ascend, so the cap
	// drops a suffix of points and never disturbs the positional seeds
	// of the rest — raising it adds rows without changing existing ones.
	MaxNodes int
}

// DefaultOptions runs full-size experiments with the default seed.
func DefaultOptions() Options { return Options{Seed: 1, Scale: 1} }

// QuickOptions runs the reduced configurations.
func QuickOptions() Options { return Options{Seed: 1, Scale: 0.25} }

// Runner regenerates the tables of one experiment.
type Runner func(Options) []*Table

// registry maps experiment IDs to runners.
var registry = map[string]struct {
	run   Runner
	title string
}{
	"f1":     {Figure1, "HVDB model construction (Fig. 1)"},
	"f2":     {Figure2, "8x8 VC / four 4-D hypercube decomposition (Fig. 2)"},
	"f3":     {Figure3, "4-D hypercube label layout (Fig. 3)"},
	"f4":     {Figure4, "proactive local logical route maintenance (Fig. 4)"},
	"f5":     {Figure5, "summary-based membership update (Fig. 5)"},
	"f6":     {Figure6, "logical location-based multicast routing (Fig. 6)"},
	"c1":     {ClaimAvailability, "claim: high availability via disjoint paths"},
	"c2":     {ClaimLoadBalance, "claim: load balancing vs tree-based backbone"},
	"c3":     {ClaimScalability, "claim: control overhead scalability"},
	"c4":     {ClaimDiameter, "claim: small diameter / few logical hops"},
	"c5":     {ClaimComparison, "protocol comparison (PDR/delay/overhead)"},
	"c6":     {ClaimChurn, "group dynamics: delivery under membership churn"},
	"scale":  {Scale, "simulator scale sweep up to 100,000-node worlds"},
	"stress": {Stress, "scripted stress scenarios: 6 protocol arms x 3 dynamic scripts"},
}

// IDs returns the registered experiment IDs in order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Title returns the one-line description of an experiment.
func Title(id string) string { return registry[id].title }

// Run executes one experiment by ID.
func Run(id string, o Options) ([]*Table, error) {
	e, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiment: unknown id %q (have %v)", id, IDs())
	}
	return e.run(o.withDefaults()), nil
}

// withDefaults fills the zero Scale and Seed with the full-size,
// seed-1 configuration.
func (o Options) withDefaults() Options {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// must unwraps constructor errors; experiment configurations are static
// and a failure is a programming error.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// parMap fans n runs across the option's worker budget and returns
// their results in run order. Run failures are panics (the package's
// must convention), which the runner captures per run; re-panic the
// first one here so the Runner signature stays error-free.
func parMap[T any](o Options, n int, fn func(runner.Run) T) []T {
	out, err := runner.Map(runner.Config{Workers: o.Workers}, o.Seed, n, func(r runner.Run) (T, error) {
		return fn(r), nil
	})
	if err != nil {
		panic(err)
	}
	return out
}

// addRows folds a batch of positionally collected rows into a table in
// run order.
func addRows(t *Table, rows [][]string) {
	for _, row := range rows {
		t.AddRow(row...)
	}
}

// parSweep runs fn once per sweep point, in parallel, results in point
// order.
func parSweep[P, T any](o Options, points []P, fn func(runner.Run, P) T) []T {
	out, err := runner.Sweep(runner.Config{Workers: o.Workers}, o.Seed, points, func(r runner.Run, p P) (T, error) {
		return fn(r, p), nil
	})
	if err != nil {
		panic(err)
	}
	return out
}

// networkBind rebinds a fresh mux onto the world's nodes (used when an
// experiment rebuilds the protocol stack with custom configs).
func networkBind(w *scenario.World) *network.Mux {
	m := network.Bind(w.Net)
	w.Mux = m
	return m
}

// scaleInt picks the full or reduced value by scale.
func scaleInt(full int, scale float64, small int) int {
	if scale >= 1 {
		return full
	}
	return small
}

// scaleDur picks the full or reduced duration by scale.
func scaleDur(full des.Duration, scale float64, small des.Duration) des.Duration {
	if scale >= 1 {
		return full
	}
	return small
}

// scaleInts picks the full or reduced sweep by scale.
func scaleInts(full []int, scale float64, small []int) []int {
	if scale >= 1 {
		return full
	}
	return small
}
