package scengen

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/multicast"
	"repro/internal/runner"
	"repro/internal/scenario"
)

// DefaultCheckConfig is the smoke-tier configuration: a small
// Figure 2 world with lossy ordinary radios (loss draws and capacity
// serialization make transmission order observable).
func DefaultCheckConfig() CheckConfig {
	spec := scenario.DefaultSpec()
	spec.Nodes = 60
	spec.MembersPerGroup = 10
	spec.LossProb = 0.05
	return CheckConfig{Spec: spec, Warmup: 10, Arms: []string{"hvdb"}, Workers: 4, Shards: []int{2, 4}}
}

// TestGenerateValidAndDeterministic checks the generator's two ground
// rules over a seed sweep: every script passes Validate (and survives
// a JSON round-trip unchanged), and the same seed always yields the
// same script.
func TestGenerateValidAndDeterministic(t *testing.T) {
	prof := DefaultProfile()
	for i := 0; i < 200; i++ {
		seed := runner.DeriveSeed(0xfeed, i)
		sc := prof.Generate(seed)
		if err := sc.Validate(); err != nil {
			t.Fatalf("seed %#x: generated invalid script: %v\n%s", seed, err, ScriptJSON(sc))
		}
		again := prof.Generate(seed)
		if !reflect.DeepEqual(sc, again) {
			t.Fatalf("seed %#x: generation not deterministic", seed)
		}
		parsed, err := scenario.ParseScript(ScriptJSON(sc))
		if err != nil {
			t.Fatalf("seed %#x: generated script does not re-parse: %v", seed, err)
		}
		if !reflect.DeepEqual(sc, parsed) {
			t.Fatalf("seed %#x: script changed across JSON round-trip", seed)
		}
		if n := len(sc.Directives); n < prof.MinDirectives || n > prof.MaxDirectives {
			t.Fatalf("seed %#x: %d directives outside [%d, %d]", seed, n, prof.MinDirectives, prof.MaxDirectives)
		}
	}
}

// TestGenerateCoversAllKinds makes sure the default profile actually
// explores the whole directive space: across a modest seed sweep every
// kind and every traffic pattern must appear.
func TestGenerateCoversAllKinds(t *testing.T) {
	kinds := map[string]bool{}
	patterns := map[string]bool{}
	prof := DefaultProfile()
	for i := 0; i < 100; i++ {
		sc := prof.Generate(runner.DeriveSeed(7, i))
		for _, d := range sc.Directives {
			kinds[d.Kind] = true
			if d.Kind == scenario.KindTraffic {
				patterns[d.Pattern] = true
			}
		}
	}
	for _, k := range allKinds {
		if !kinds[k] {
			t.Errorf("kind %q never generated", k)
		}
	}
	for _, p := range allPatterns {
		if !patterns[p] {
			t.Errorf("pattern %q never generated", p)
		}
	}
}

// TestGenerateRespectsProfile pins the profile knobs the smoke tier
// and the fault-seed self-test rely on: kind restriction and bounds.
func TestGenerateRespectsProfile(t *testing.T) {
	prof := DefaultProfile()
	prof.Kinds = []string{scenario.KindTraffic, scenario.KindRadioLoss}
	prof.MaxPackets = 4
	prof.MaxCount = 2
	for i := 0; i < 50; i++ {
		sc := prof.Generate(runner.DeriveSeed(21, i))
		for _, d := range sc.Directives {
			if d.Kind != scenario.KindTraffic && d.Kind != scenario.KindRadioLoss {
				t.Fatalf("kind %q outside the restricted profile", d.Kind)
			}
			if d.Packets > 4 || d.Count > 2 {
				t.Fatalf("directive exceeds profile bounds: %+v", d)
			}
		}
	}
}

// smokeCampaignConfig is the CI smoke tier: small worlds, hvdb checked
// on every script, one baseline arm cycled through every fourth script
// so the non-hvdb stacks stay covered without quadrupling the cost.
func smokeCampaignConfig(scripts int) CampaignConfig {
	baselines := []string{"flooding", "dsm", "pbm", "spbm", "cbt"}
	return CampaignConfig{
		Check:   DefaultCheckConfig(),
		Profile: DefaultProfile(),
		Seed:    0x5ce9c0de,
		Scripts: scripts,
		ArmsFor: func(i int) []string {
			if i%4 == 3 {
				return []string{"hvdb", baselines[(i/4)%len(baselines)]}
			}
			return []string{"hvdb"}
		},
	}
}

// TestFuzzSmokeCampaign is the standing smoke tier: ~100 generated
// scripts (a dozen under -short) checked against the full invariant
// set. Any failure is shrunk and written to $SCENGEN_FAILDIR (or the
// test temp dir) for replay via `hvdbsim -script`; CI uploads that
// directory as an artifact.
func TestFuzzSmokeCampaign(t *testing.T) {
	n := 100
	if testing.Short() {
		n = 12
	}
	cfg := smokeCampaignConfig(n)
	cfg.Log = t.Logf
	res := Campaign(cfg)
	if len(res.Failures) == 0 {
		if res.Scripts != n {
			t.Fatalf("campaign checked %d scripts, want %d", res.Scripts, n)
		}
		return
	}
	dir := os.Getenv("SCENGEN_FAILDIR")
	if dir == "" {
		dir = t.TempDir()
	}
	for _, f := range res.Failures {
		min := f.Minimized
		if min == nil {
			min = f.Script
		}
		path := filepath.Join(dir, fmt.Sprintf("scengen-fail-%016x.json", f.GenSeed))
		if err := os.WriteFile(path, ScriptJSON(min), 0o644); err != nil {
			t.Errorf("writing %s: %v", path, err)
		}
		t.Errorf("script %d (gen seed %#x, world seed %#x): %s\nminimized script written to %s\nreplay: go run ./cmd/hvdbsim -proto hvdb -seed %#x -script %s",
			f.Index, f.GenSeed, f.WorldSeed, f.Report, path, f.WorldSeed, path)
	}
}

// TestCampaignDeterministic reruns a slice of the smoke campaign and
// requires identical scripts and identical verdicts — the property
// that makes a CI failure reproducible on a laptop with nothing but
// the seed.
func TestCampaignDeterministic(t *testing.T) {
	n := 4
	run := func() ([]string, int) {
		cfg := smokeCampaignConfig(n)
		var scripts []string
		for i := 0; i < n; i++ {
			scripts = append(scripts, string(ScriptJSON(cfg.Profile.Generate(runner.DeriveSeed(cfg.Seed, i)))))
		}
		return scripts, len(Campaign(cfg).Failures)
	}
	s1, f1 := run()
	s2, f2 := run()
	if !reflect.DeepEqual(s1, s2) {
		t.Fatal("same campaign seed generated different scripts")
	}
	if f1 != f2 {
		t.Fatalf("same campaign seed produced different verdicts: %d vs %d failures", f1, f2)
	}
}

// TestFaultSeedCompiledOut guards the fuzzing machinery itself: a
// plain build must not carry the seeded determinism fault (it is
// compiled in only under -tags faultseed, for the self-test that
// proves the harness catches it).
func TestFaultSeedCompiledOut(t *testing.T) {
	if multicast.FaultSeedActive {
		t.Fatal("multicast fault seed active in a plain build; the faultseed build tag leaked")
	}
}

// FuzzScriptInvariants is the native fuzz entry point: each input is a
// generator seed, expanded to a script and checked on a tiny world.
// The committed corpus under testdata/fuzz runs as regression cases on
// every plain `go test`; `go test -fuzz FuzzScriptInvariants` searches
// new seeds.
func FuzzScriptInvariants(f *testing.F) {
	f.Add(uint64(1))
	f.Add(uint64(0x5ce9c0de))
	f.Add(uint64(0xffffffffffffffff))
	f.Fuzz(func(t *testing.T, seed uint64) {
		sc := DefaultProfile().Generate(seed)
		if err := sc.Validate(); err != nil {
			t.Fatalf("seed %#x: invalid script: %v", seed, err)
		}
		cfg := DefaultCheckConfig()
		// One tiny world per input keeps seed-corpus replay cheap and
		// fuzzing throughput usable.
		cfg.Spec.ArenaSize = 1000 // 4x4 grid: one dim-4 hypercube
		cfg.Spec.Nodes = 24
		cfg.Spec.MembersPerGroup = 6
		cfg.Spec.Seed = seed
		cfg.Warmup = 8
		rep := Check(cfg, sc)
		if rep.Failed() {
			t.Fatalf("%s\nscript:\n%s", rep, ScriptJSON(sc))
		}
	})
}

// TestFingerprintCoversEveryCount: two outcomes that differ in one
// counter only must fingerprint differently — hop accounting and a
// single drop cause included — or the rerun, workers and shards
// invariants cannot see that counter.
func TestFingerprintCoversEveryCount(t *testing.T) {
	base := scenario.Counts{Sent: 10, Expected: 40, Delivered: 38, MeanHops: 3.25, Events: 12345}
	base.Drops[0] = 7
	hops, drop := base, base
	hops.MeanHops = 3.5
	drop.Drops[scenario.NumDrops-1]++
	ref := fingerprint(base, 99999)
	for _, tc := range []struct {
		field string
		c     scenario.Counts
	}{{"MeanHops", hops}, {"Drops", drop}} {
		if fingerprint(tc.c, 99999) == ref {
			t.Errorf("outcomes differing only in %s share the fingerprint %q", tc.field, ref)
		}
	}
	if fingerprint(base, 99998) == ref {
		t.Error("the total event count is not in the fingerprint")
	}
}
