package scengen

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/des"
	"repro/internal/runner"
	"repro/internal/scenario"
)

// campaignWorldSalt decorrelates per-script world seeds from the
// per-script generator seeds of the same campaign base.
const campaignWorldSalt = 0x46a309ed571cf2bb

// CheckConfig configures one invariant check of a script.
type CheckConfig struct {
	// Spec is the world template; every run builds a fresh world from
	// it (Spec.Seed is the world seed). It needs at least as many
	// Groups as the script references.
	Spec scenario.Spec
	// Warmup runs the control planes before the script starts.
	Warmup des.Duration
	// Arms lists the protocol arms to check; empty means hvdb only.
	Arms []string
	// Workers sizes the worker pool of the concurrent first pass; the
	// serial second pass must reproduce it byte-identically regardless.
	// Zero means 4, matching the experiment determinism sweep.
	Workers int
	// Shards lists the sharded-kernel configurations whose results must
	// reproduce the serial run byte-identically (the shards invariant);
	// empty skips the shard checks. Entries of 1 are redundant (the
	// serial pass is the reference) but harmless.
	Shards []int
}

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

// Invariant names reported in Violations.
const (
	// InvRun: the script must execute without error on a world that has
	// its groups (generated scripts always reference valid groups).
	InvRun = "run"
	// InvRerun: rerunning the same (spec, arm, script) must reproduce
	// the result byte-identically, including the executed-event count.
	InvRerun = "rerun"
	// InvWorkers: results must be independent of the worker count /
	// scheduling of sibling runs (the concurrent first pass must match
	// serial reruns that match each other).
	InvWorkers = "workers"
	// InvTreeCache: the route cache must be observationally invisible —
	// cache-on and cache-bypass runs must be byte-identical.
	InvTreeCache = "treecache"
	// InvShards: results must be independent of the shard count — a run
	// on the sharded kernel (Spec.Shards > 1) must reproduce the serial
	// run byte-identically, including the executed-event count; a world
	// that silently declines sharding also violates (the check would be
	// vacuous).
	InvShards = "shards"
	// InvPoolLeak: network.PooledInFlight() must be zero once the stack
	// is stopped and the simulator drained.
	InvPoolLeak = "poolleak"
	// InvStats: the stats empty-sample contract — no NaN/Inf anywhere,
	// zero deliveries mean zero delay metrics, PDR and Jain in [0,1].
	InvStats = "stats"
	// InvStream: the streaming-metrics contract — every audience entry
	// is released by script teardown (ScriptResult.AudienceOpen == 0,
	// the audience-map analogue of the pool-leak check), and the delay
	// histogram absorbed exactly one observation per counted delivery
	// (DelaySamples == Delivered). The histogram's full-state digest is
	// part of the fingerprint, so its rerun/worker/shard invariance is
	// enforced by the fp comparisons of those invariants.
	InvStream = "stream"
)

// Violation is one broken invariant on one protocol arm.
type Violation struct {
	Invariant string
	Arm       string
	Detail    string
}

func (v Violation) String() string {
	return fmt.Sprintf("[%s/%s] %s", v.Invariant, v.Arm, v.Detail)
}

// Report is the outcome of one Check.
type Report struct {
	Script     *scenario.Script
	Violations []Violation
}

// Failed reports whether any invariant broke.
func (r *Report) Failed() bool { return len(r.Violations) > 0 }

func (r *Report) String() string {
	if !r.Failed() {
		return fmt.Sprintf("script %q: ok", r.Script.Name)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "script %q: %d violation(s)", r.Script.Name, len(r.Violations))
	for _, v := range r.Violations {
		b.WriteString("\n  ")
		b.WriteString(v.String())
	}
	return b.String()
}

// runOutcome is the observable result of one script run, reduced to
// exactly what the invariants compare.
type runOutcome struct {
	// fp renders every measured field at %v (shortest round-trip)
	// precision plus the executed-event count, so string equality is
	// bit equality.
	fp        string
	inflight  int
	statsErr  string
	streamErr string
	// shardNote is non-empty when the spec asked for sharding and the
	// world fell back to serial (scenario.World.ShardNote).
	shardNote string
	err       error
}

// runArm builds a fresh world from spec, plays the script through one
// protocol arm (optionally with the route cache bypassed), drains the
// simulator, and reduces the run to its outcome.
func runArm(spec scenario.Spec, arm string, sc *scenario.Script, warmup des.Duration, bypass bool) runOutcome {
	w, err := scenario.Build(spec)
	if err != nil {
		return runOutcome{err: err}
	}
	stk, err := w.Protocol(arm)
	if err != nil {
		return runOutcome{err: err}
	}
	w.BB.Trees().SetBypass(bypass)
	stk.Start()
	w.WarmUp(warmup)
	res, err := w.RunScript(stk, sc)
	if err != nil {
		return runOutcome{err: err}
	}
	stk.Stop()
	w.RunUntil(w.Sim.Now() + 5) // drain in-flight deliveries and stopped tickers
	w.Sim.Run()                 // and any stragglers past the drain window
	return runOutcome{
		fp: fmt.Sprintf("sent=%d expected=%d delivered=%d stale=%d mean=%v p50=%v p95=%v ctrl=%v jain=%v elapsed=%v events=%d delaydg=%#x audpeak=%d",
			res.Sent, res.Expected, res.Delivered, res.Stale,
			res.MeanDelay, res.P50Delay, res.P95Delay, res.CtrlPerNodeS, res.Jain, res.Elapsed,
			w.Sim.Executed(), res.DelayDigest, res.AudiencePeak),
		inflight:  w.Net.PooledInFlight(),
		statsErr:  statsContract(res),
		streamErr: streamContract(res),
		shardNote: w.ShardNote,
	}
}

// streamContract checks the streaming-metrics bookkeeping of a result;
// it returns "" when the result honors it.
func streamContract(res *scenario.ScriptResult) string {
	if res.AudienceOpen != 0 {
		return fmt.Sprintf("%d audience entries still tracked at teardown", res.AudienceOpen)
	}
	if res.DelaySamples != res.Delivered {
		return fmt.Sprintf("delay histogram absorbed %d samples for %d deliveries", res.DelaySamples, res.Delivered)
	}
	if res.AudiencePeak > res.Sent {
		return fmt.Sprintf("audience peak %d exceeds %d sends", res.AudiencePeak, res.Sent)
	}
	return ""
}

// statsContract checks the empty-sample/no-NaN contract of a result;
// it returns "" when the result honors it.
func statsContract(res *scenario.ScriptResult) string {
	fields := map[string]float64{
		"mean": res.MeanDelay, "p50": res.P50Delay, "p95": res.P95Delay,
		"ctrl": res.CtrlPerNodeS, "jain": res.Jain, "pdr": res.PDR(),
	}
	for _, name := range []string{"mean", "p50", "p95", "ctrl", "jain", "pdr"} {
		if v := fields[name]; math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Sprintf("%s is %v", name, v)
		}
	}
	if res.Delivered == 0 && (res.MeanDelay != 0 || res.P50Delay != 0 || res.P95Delay != 0) {
		return fmt.Sprintf("zero deliveries but delays %v/%v/%v", res.MeanDelay, res.P50Delay, res.P95Delay)
	}
	if pdr := res.PDR(); pdr < 0 || pdr > 1 {
		return fmt.Sprintf("pdr %v outside [0,1]", pdr)
	}
	if res.Jain < 0 || res.Jain > 1 {
		return fmt.Sprintf("jain %v outside [0,1]", res.Jain)
	}
	if res.Delivered < 0 || res.Stale < 0 || res.Delivered > res.Expected {
		return fmt.Sprintf("delivery counters inconsistent: delivered=%d expected=%d stale=%d",
			res.Delivered, res.Expected, res.Stale)
	}
	return ""
}

// Check runs one script through every configured arm and asserts the
// standing invariants: a concurrent first pass (Workers-wide, the
// worker-count-independence probe), a serial rerun that must reproduce
// each first-pass result byte-identically, a cache-bypass run on the
// hvdb arm that must match the cached one, sharded-kernel runs at
// every cfg.Shards count that must match the serial fingerprint, plus
// the pool-leak and stats contracts on every run.
func Check(cfg CheckConfig, sc *scenario.Script) *Report {
	rep := &Report{Script: sc}
	if err := sc.Validate(); err != nil {
		rep.Violations = append(rep.Violations, Violation{Invariant: InvRun, Detail: err.Error()})
		return rep
	}
	arms := cfg.Arms
	if len(arms) == 0 {
		arms = []string{"hvdb"}
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = 4
	}
	// First pass: all arms on a worker pool. The runs share nothing, so
	// any cross-run contamination shows up as a mismatch below.
	first, _ := runner.Map(runner.Config{Workers: workers}, 0, len(arms),
		func(r runner.Run) (runOutcome, error) {
			return runArm(cfg.Spec, arms[r.Index], sc, cfg.Warmup, false), nil
		})
	for i, arm := range arms {
		out := first[i]
		if out.err != nil {
			rep.Violations = append(rep.Violations, Violation{InvRun, arm, out.err.Error()})
			continue
		}
		if out.inflight != 0 {
			rep.Violations = append(rep.Violations, Violation{InvPoolLeak, arm,
				fmt.Sprintf("%d pooled packets still checked out after teardown", out.inflight)})
		}
		if out.statsErr != "" {
			rep.Violations = append(rep.Violations, Violation{InvStats, arm, out.statsErr})
		}
		if out.streamErr != "" {
			rep.Violations = append(rep.Violations, Violation{InvStream, arm, out.streamErr})
		}
		second := runArm(cfg.Spec, arm, sc, cfg.Warmup, false)
		if second.err != nil {
			rep.Violations = append(rep.Violations, Violation{InvRun, arm, second.err.Error()})
			continue
		}
		if second.fp != out.fp {
			// A third, serial run arbitrates: if it reproduces the serial
			// second run, only the pooled first pass deviated (scheduling
			// sensitivity); otherwise the run is nondeterministic outright.
			third := runArm(cfg.Spec, arm, sc, cfg.Warmup, false)
			inv := InvWorkers
			if third.fp != second.fp {
				inv = InvRerun
			}
			rep.Violations = append(rep.Violations, Violation{inv, arm,
				fmt.Sprintf("results diverged across reruns:\n  pooled: %s\n  serial: %s", out.fp, second.fp)})
			continue // fingerprints are unstable: a bypass diff would be noise
		}
		if arm == "hvdb" {
			byp := runArm(cfg.Spec, arm, sc, cfg.Warmup, true)
			if byp.err != nil {
				rep.Violations = append(rep.Violations, Violation{InvRun, arm, byp.err.Error()})
			} else if byp.fp != out.fp {
				rep.Violations = append(rep.Violations, Violation{InvTreeCache, arm,
					fmt.Sprintf("route cache changed observable behavior:\n  cached:   %s\n  bypassed: %s", out.fp, byp.fp)})
			}
		}
		// Shards invariant: the same script on the sharded kernel must
		// reproduce the serial fingerprint byte-identically at every
		// configured shard count. Only reached when the serial
		// fingerprint is stable, so a mismatch here implicates the
		// kernel, not run-to-run noise.
		for _, k := range cfg.Shards {
			if k <= 1 {
				continue
			}
			sspec := cfg.Spec
			sspec.Shards = k
			sh := runArm(sspec, arm, sc, cfg.Warmup, false)
			if sh.err != nil {
				rep.Violations = append(rep.Violations, Violation{InvRun, arm, sh.err.Error()})
				continue
			}
			if sh.shardNote != "" {
				rep.Violations = append(rep.Violations, Violation{InvShards, arm,
					fmt.Sprintf("world declined shards=%d (check would be vacuous): %s", k, sh.shardNote)})
				continue
			}
			if sh.fp != out.fp {
				// A second sharded run arbitrates: if it reproduces the
				// first, the divergence is a stable function of the shard
				// count; otherwise the sharded run itself is flaky.
				again := runArm(sspec, arm, sc, cfg.Warmup, false)
				inv := InvShards
				if again.fp != sh.fp {
					inv = InvRerun
				}
				rep.Violations = append(rep.Violations, Violation{inv, arm,
					fmt.Sprintf("shards=%d diverged from serial:\n  serial:    %s\n  shards=%d: %s", k, out.fp, k, sh.fp)})
			}
		}
	}
	return rep
}

// CampaignConfig configures a batch of generated-script checks.
type CampaignConfig struct {
	Check   CheckConfig
	Profile Profile
	// Seed is the campaign base seed: script i is generated from
	// runner.DeriveSeed(Seed, i) and checked on a world seeded with
	// runner.DeriveSeed(Seed^campaignWorldSalt, i), so campaigns are a
	// pure function of (Seed, Scripts, config).
	Seed uint64
	// Scripts is how many scripts to generate and check.
	Scripts int
	// ArmsFor, when set, overrides Check.Arms per script index — e.g.
	// cycling one baseline arm through the batch to bound cost.
	ArmsFor func(i int) []string
	// MaxFailures stops the campaign early; 0 means 1.
	MaxFailures int
	// ShrinkBudget caps predicate evaluations while minimizing each
	// failure; 0 means the Shrink default, negative disables shrinking.
	ShrinkBudget int
	// Log, when set, receives progress lines.
	Log func(format string, args ...any)
}

// Failure is one failing script of a campaign.
type Failure struct {
	// Index and GenSeed identify the script within the campaign;
	// WorldSeed is the spec seed it was checked under.
	Index     int
	GenSeed   uint64
	WorldSeed uint64
	Script    *scenario.Script
	Report    *Report
	// Minimized is the shrunken script (nil when shrinking is disabled);
	// it still fails and replays via `hvdbsim -script`.
	Minimized *scenario.Script
}

// CampaignResult summarizes a campaign.
type CampaignResult struct {
	Scripts  int // scripts checked (may stop early at MaxFailures)
	Failures []*Failure
}

// Campaign generates and checks cfg.Scripts scripts, shrinking each
// failure to a minimal script that still fails. Same seed, same
// config: same scripts, same verdicts.
func Campaign(cfg CampaignConfig) *CampaignResult {
	prof := cfg.Profile.withDefaults()
	maxFail := cfg.MaxFailures
	if maxFail <= 0 {
		maxFail = 1
	}
	logf := cfg.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}
	res := &CampaignResult{}
	for i := 0; i < cfg.Scripts; i++ {
		genSeed := runner.DeriveSeed(cfg.Seed, i)
		sc := prof.Generate(genSeed)
		ck := cfg.Check
		ck.Spec.Seed = runner.DeriveSeed(cfg.Seed^campaignWorldSalt, i)
		if cfg.ArmsFor != nil {
			ck.Arms = cfg.ArmsFor(i)
		}
		rep := Check(ck, sc)
		res.Scripts++
		if !rep.Failed() {
			logf("script %d/%d (seed %#x): ok", i+1, cfg.Scripts, genSeed)
			continue
		}
		logf("script %d/%d (seed %#x): FAIL\n%s", i+1, cfg.Scripts, genSeed, rep)
		f := &Failure{Index: i, GenSeed: genSeed, WorldSeed: ck.Spec.Seed, Script: sc, Report: rep}
		if cfg.ShrinkBudget >= 0 {
			// Shrink against only the arms that violated — the cheapest
			// predicate that still witnesses the failure.
			ck.Arms = violatedArms(rep, ck.Arms)
			f.Minimized = Shrink(sc, func(c *scenario.Script) bool {
				return Check(ck, c).Failed()
			}, cfg.ShrinkBudget)
			logf("minimized to %d directive(s)", len(f.Minimized.Directives))
		}
		res.Failures = append(res.Failures, f)
		if len(res.Failures) >= maxFail {
			break
		}
	}
	return res
}

// violatedArms returns the arms (in configured order) with at least
// one violation; arms defaults to hvdb-only like Check.
func violatedArms(rep *Report, arms []string) []string {
	if len(arms) == 0 {
		arms = []string{"hvdb"}
	}
	bad := make(map[string]bool, len(rep.Violations))
	for _, v := range rep.Violations {
		bad[v.Arm] = true
	}
	out := make([]string, 0, len(arms))
	for _, a := range arms {
		if bad[a] {
			out = append(out, a)
		}
	}
	if len(out) == 0 {
		return arms
	}
	return out
}
