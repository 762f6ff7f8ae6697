package scenario

import (
	"testing"

	"repro/internal/protocol"
)

// TestAudienceBoundedAndReleasedAtTeardown is the audience-map
// counterpart of the pooled-packet leak check: retained per-packet
// audience state must stay proportional to the send rate over one
// audienceTTL window (entries release once fully accounted or on TTL
// expiry), and the map must be empty once the script drains.
func TestAudienceBoundedAndReleasedAtTeardown(t *testing.T) {
	sc := &Script{Name: "audience-bound", Directives: []Directive{
		// 40 sends over ~20 s: far longer than one TTL window, so a
		// regression back to retain-forever shows up as a peak near the
		// total send count.
		{At: 0, Kind: KindTraffic, Pattern: PatternCBR, Group: 0,
			Interval: 0.5, Packets: 40, Payload: 256},
	}}
	for _, arm := range protocol.Names() {
		t.Run(arm, func(t *testing.T) {
			spec := DefaultSpec()
			spec.Seed = 11
			spec.Nodes = 60
			spec.Groups = 1
			spec.MembersPerGroup = 8
			spec.Mobility = Static
			w, err := Build(spec)
			if err != nil {
				t.Fatal(err)
			}
			stk, err := w.Protocol(arm)
			if err != nil {
				t.Fatal(err)
			}
			stk.Start()
			w.WarmUp(10)
			res, err := w.RunScript(stk, sc)
			if err != nil {
				t.Fatal(err)
			}
			if res.Sent == 0 {
				t.Fatal("script sent nothing; the audience checks below would be vacuous")
			}
			if res.AudienceOpen != 0 {
				t.Errorf("audience entries leaked: %d still tracked at teardown", res.AudienceOpen)
			}
			// Closing an audience entry forgets the packet at the arm, so
			// its per-packet index is empty too.
			if res.FlightsOpen != 0 || stk.Tracked() != 0 {
				t.Errorf("arm still tracks %d packets at teardown (result says %d)", stk.Tracked(), res.FlightsOpen)
			}
			if res.AudiencePeak == 0 {
				t.Error("AudiencePeak = 0: sends were not tracked at all")
			}
			// TTL is 5 s and the send gap 0.5 s, so even if nothing were
			// ever fully accounted the live window holds ~11 entries; give
			// slack for in-flight stragglers but stay far under the total
			// send count.
			if limit := 15; res.AudiencePeak > limit {
				t.Errorf("AudiencePeak = %d for %d sends; want <= %d (entries must be released on the fly, not retained for the run)",
					res.AudiencePeak, res.Sent, limit)
			}
			stk.Stop()
			assertNoPacketLeaks(t, w)
		})
	}
}
