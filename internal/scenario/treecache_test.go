package scenario

import (
	"fmt"
	"testing"
)

// runScriptedWorld builds a fresh world from the same spec, runs one
// built-in script over the hvdb arm with the route cache in the given
// mode, and renders every measured field of the result. Byte-comparing
// the rendering between cache-on and cache-bypass runs is the
// observational-transparency contract of internal/route: a memoized
// tree must equal the tree a fresh computation would have produced, so
// the cache cannot shift a single delivery, delay, or counter — even
// under churn storms and partition/heal dynamics, whose cluster-head
// changes and Join/Leave directives drive the invalidation hooks
// mid-run.
func runScriptedWorld(t *testing.T, script string, bypass bool) string {
	t.Helper()
	spec := DefaultSpec()
	spec.Seed = 11
	spec.Nodes = 120
	spec.Groups = 1
	spec.MembersPerGroup = 10
	spec.LossProb = 0.05 // loss draws make transmission order observable
	w, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	stk, err := w.Protocol("hvdb")
	if err != nil {
		t.Fatal(err)
	}
	w.BB.Trees().SetBypass(bypass)
	sc, err := BuiltinScript(script)
	if err != nil {
		t.Fatal(err)
	}
	stk.Start()
	w.WarmUp(12)
	res, err := w.RunScript(stk, sc)
	if err != nil {
		t.Fatal(err)
	}
	stk.Stop()
	assertNoPacketLeaks(t, w)
	// %v renders float64s at shortest-round-trip precision, so string
	// equality below is bit equality over every counter — the comparison
	// really is byte-identical, not identical-to-9-digits.
	return fmt.Sprintf("%s %+v", script, res)
}

// TestTreeCacheTransparent runs the churn-storm and partition-heal
// scripts — the two that exercise Join/Leave, CH failover, and the CH
// changes a partition and its heal cause — with the route cache on and
// bypassed, asserting byte-identical results. It runs in the raced
// determinism sweep (CI determinism job).
func TestTreeCacheTransparent(t *testing.T) {
	for _, script := range []string{"churn-storm", "partition-heal"} {
		script := script
		t.Run(script, func(t *testing.T) {
			t.Parallel()
			cached := runScriptedWorld(t, script, false)
			bypassed := runScriptedWorld(t, script, true)
			if cached != bypassed {
				t.Fatalf("route cache changed observable behavior:\ncached:   %s\nbypassed: %s", cached, bypassed)
			}
		})
	}
}

// TestScriptMetricsDefinedWithZeroDeliveries drives a script through a
// world whose radios lose every transmission: no flow can deliver, and
// every metric must come out at its defined empty-sample value (see the
// stats package contract) — no NaN, no divide-by-zero.
func TestScriptMetricsDefinedWithZeroDeliveries(t *testing.T) {
	spec := DefaultSpec()
	spec.Seed = 3
	spec.Nodes = 40
	spec.LossProb = 1 // ordinary radios lose everything
	w, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	// The anchors' CH radios are lossless by default: sink them too.
	for _, id := range w.Anchors {
		w.Net.Node(id).Radio.LossProb = 1
	}
	stk, err := w.Protocol("hvdb")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := BuiltinScript("flash-crowd")
	if err != nil {
		t.Fatal(err)
	}
	stk.Start()
	w.WarmUp(8)
	res, err := w.RunScript(stk, sc)
	if err != nil {
		t.Fatal(err)
	}
	stk.Stop()
	if res.Delivered != 0 {
		t.Fatalf("lossy world delivered %d packets", res.Delivered)
	}
	if pdr := res.PDR(); pdr != 0 {
		t.Fatalf("PDR %v want 0", pdr)
	}
	if res.MeanDelay != 0 || res.P50Delay != 0 || res.P95Delay != 0 {
		t.Fatalf("empty delay metrics should be zeros, got %v/%v/%v", res.MeanDelay, res.P50Delay, res.P95Delay)
	}
	// Nothing was forwarded, so loads are all-zero: perfectly even.
	if res.Jain != 1 {
		t.Fatalf("all-zero forwarding loads: Jain %v want 1", res.Jain)
	}
}
