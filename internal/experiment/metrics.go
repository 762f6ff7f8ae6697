package experiment

import (
	"fmt"

	"repro/internal/des"
	"repro/internal/membership"
	"repro/internal/protocol"
	"repro/internal/scenario"
)

// measure runs one traffic phase through the scenario meter: play
// starts the sends (through m), the world then runs span — how long the
// sends play schedules take to leave — plus drain, which is also the
// meter's release TTL, and the meter closes. A phase that ends with
// audience entries still held by the meter is a bookkeeping bug, so it
// panics (the package's must convention) instead of letting an
// experiment leak quietly.
func measure(w *scenario.World, stk protocol.Stack, span, drain des.Duration, play func(m *scenario.Meter)) scenario.Counts {
	m := w.Meter(stk, drain)
	play(m)
	w.RunUntil(w.Sim.Now() + span + drain)
	c := m.Close()
	if c.AudienceOpen != 0 {
		panic(fmt.Sprintf("experiment: %s traffic phase leaked %d audience entries", stk.Name(), c.AudienceOpen))
	}
	return c
}

// cbrTraffic drives count CBR packets from one random source to group
// g over any protocol arm and returns the counts after draining.
func cbrTraffic(w *scenario.World, stk protocol.Stack, g membership.Group, count, payload int, interval, drain des.Duration) scenario.Counts {
	return measure(w, stk, interval*des.Duration(count), drain, func(m *scenario.Meter) {
		src := w.RandomSource()
		w.CBR(func() uint64 { return m.Send(src, g, payload) }, interval, count)
	})
}

// controlPerNodeSecond reads control overhead normalized by node count
// and elapsed time.
func controlPerNodeSecond(w *scenario.World, elapsed des.Duration) float64 {
	if elapsed <= 0 || w.Net.Len() == 0 {
		return 0
	}
	return float64(w.Net.Stats().ControlBytes) / float64(w.Net.Len()) / float64(elapsed)
}
