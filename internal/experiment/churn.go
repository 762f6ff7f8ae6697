package experiment

import (
	"repro/internal/des"
	"repro/internal/membership"
	"repro/internal/network"
	"repro/internal/runner"
	"repro/internal/scenario"
)

// ClaimChurn evaluates dynamic group membership — the axis on which the
// paper dismisses SGM ("this protocol is more suitable for the groups in
// which the group membership is static") and claims its summary plane
// handles joins and leaves through periodic refresh. The experiment
// sweeps the churn rate (member replacements per second) and measures
// the delivery ratio against the *current* membership at each send, plus
// the staleness-induced leakage (deliveries to nodes that had already
// left).
//
// The accounting is the scenario meter's, the one scripted runs use:
// audience = the members current and up when the packet left.
func ClaimChurn(o Options) []*Table {
	t := &Table{
		ID:    "C6",
		Title: "group dynamics: delivery under membership churn",
		Columns: []string{"churn (changes/s)", "PDR (current members)", "stale deliveries",
			"mean delay (ms)"},
	}
	packets := scaleInt(30, o.Scale, 10)
	// One independent world per churn rate.
	rows := parSweep(o, []float64{0, 8, 4, 2}, func(_ runner.Run, churnPeriod float64) []string {
		spec := scenario.DefaultSpec()
		spec.Seed = o.Seed
		spec.Nodes = scaleInt(160, o.Scale, 64)
		spec.Groups = 1
		spec.MembersPerGroup = scaleInt(12, o.Scale, 8)
		spec.Mobility = scenario.Static
		w := must(scenario.Build(spec))
		stk := must(w.Protocol("hvdb"))
		stk.Start()
		w.WarmUp(14)

		// Churn: every churnPeriod seconds one member leaves and one
		// non-member joins.
		churnRate := 0.0
		if churnPeriod > 0 {
			churnRate = 2 / churnPeriod // one leave + one join
		}
		c := measure(w, stk, des.Duration(packets), 6, func(m *scenario.Meter) {
			if churnPeriod > 0 {
				current := m.Members(0)
				var tick func()
				tick = func() {
					// Deterministic leaver: the lowest current member ID
					// (map iteration order would break reproducibility).
					var leaver network.NodeID = network.NoNode
					for id := range current {
						if leaver == network.NoNode || id < leaver {
							leaver = id
						}
					}
					if leaver != network.NoNode {
						m.Leave(leaver, 0)
					}
					for tries := 0; tries < 50; tries++ {
						cand := w.Ordinary[w.Rng.Pick(len(w.Ordinary))]
						if !current[cand] {
							m.Join(cand, 0)
							break
						}
					}
					w.Sim.After(des.Duration(churnPeriod), tick)
				}
				w.Sim.After(des.Duration(churnPeriod), tick)
			}
			src := w.RandomSource()
			w.CBR(func() uint64 { return m.Send(src, 0, 256) }, 1, packets)
		})
		stk.Stop()
		return []string{F(churnRate), Pct(c.PDR()), I(c.Stale), F(c.MeanDelay * 1000)}
	})
	addRows(t, rows)
	cad := membership.DefaultConfig()
	t.Note("membership refresh cadence: local %g s, MNT %g s, HT %g s; churned joins propagate within ~1 MNT period in-cube",
		float64(cad.LocalPeriod), float64(cad.MNTPeriod), float64(cad.HTPeriod))
	t.Note("stale deliveries = packets reaching nodes that had left (bounded by the refresh cadence)")
	return []*Table{t}
}
