package experiment

import (
	"fmt"

	"repro/internal/runner"
	"repro/internal/scenario"
)

// stressArms is the comparison order of the stress tables: HVDB first,
// then the §2.2 schemes.
var stressArms = []string{"hvdb", "flooding", "dsm", "pbm", "spbm", "cbt"}

// stressScript returns the named built-in script sized for the run:
// full scale uses the scripts as shipped; quick scale shortens windows
// and shrinks bursts so the smoke sweep stays fast.
func stressScript(name string, scale float64) *scenario.Script {
	sc := must(scenario.BuiltinScript(name))
	if scale >= 1 {
		return sc
	}
	for i := range sc.Directives {
		d := &sc.Directives[i]
		if d.Packets > 0 {
			d.Packets = max(2, d.Packets/3)
		}
		if d.Count > 1 {
			d.Count = d.Count / 2
		}
		if d.Duration > 0 {
			d.Duration /= 2
			if d.Period > d.Duration {
				d.Period = d.Duration
			}
		}
	}
	return sc
}

// flashSenders reads the flash-crowd burst width of the script actually
// run at this scale, so the table note stays truthful at quick scale.
func flashSenders(scale float64) int {
	for _, d := range stressScript("flash-crowd", scale).Directives {
		if d.Pattern == scenario.PatternFlash {
			return d.Count
		}
	}
	return 0
}

// Stress is the scripted dynamic-scenario family: every protocol arm in
// protocol.Names() against the three built-in stress scripts — churn storm,
// flash crowd, partition/heal — on identically specced mobile worlds.
// Each (script, arm) cell is one self-contained run, so the whole grid
// fans across workers with byte-identical tables at any worker count.
func Stress(o Options) []*Table {
	scripts := scenario.BuiltinScripts()

	type cell struct {
		script string
		arm    string
	}
	var cells []cell
	for _, script := range scripts {
		for _, arm := range stressArms {
			cells = append(cells, cell{script, arm})
		}
	}
	rows := parSweep(o, cells, func(_ runner.Run, c cell) []string {
		sc := stressScript(c.script, o.Scale)
		spec := scenario.DefaultSpec()
		spec.Seed = o.Seed
		spec.Nodes = scaleInt(160, o.Scale, 64)
		spec.Groups = 1
		spec.MembersPerGroup = scaleInt(15, o.Scale, 8)
		w := must(scenario.Build(spec))
		stk := must(w.Protocol(c.arm))
		stk.Start()
		w.WarmUp(scaleDur(12, o.Scale, 10))
		res := must(w.RunScript(stk, sc))
		stk.Stop()
		return []string{
			c.arm, Pct(res.PDR()), I(res.Stale), F(res.CtrlPerNodeS),
			F(res.P50Delay * 1000), F(res.P95Delay * 1000), F(res.Jain),
		}
	})

	var tables []*Table
	for si, script := range scripts {
		t := &Table{
			ID:    fmt.Sprintf("S%d", si+1),
			Title: fmt.Sprintf("stress scenario %q: all protocol arms under the scripted dynamics", script),
			Columns: []string{
				"protocol", "PDR (current members)", "stale", "ctrl B/node/s",
				"p50 delay (ms)", "p95 delay (ms)", "jain",
			},
		}
		addRows(t, rows[si*len(stressArms):(si+1)*len(stressArms)])
		tables = append(tables, t)
	}
	tables[0].Note("churn storm: rolling node failures plus member join/leave waves under CBR + bursty on/off traffic")
	tables[1].Note("flash crowd: a Poisson background stream plus %d simultaneous burst senders", flashSenders(o.Scale))
	tables[2].Note("partition/heal: a radio-degradation window, then an impassable center strip that heals mid-stream")
	for _, t := range tables {
		t.Note("PDR is measured against each packet's send-time audience (live current members); stale = deliveries to departed members")
	}
	return tables
}
