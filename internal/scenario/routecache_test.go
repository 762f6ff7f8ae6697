package scenario

import (
	"testing"
)

// TestRouteCacheInvalidationWiring exercises the cache's invalidation
// edges through the protocol plane, asserted via the Hits / Misses /
// Invalidated counters:
//
//   - sends populate the cache (misses) and repeat sends at an
//     unchanged version reuse it (hits);
//   - stack Join/Leave eagerly invalidates the group's entries;
//   - a cluster-head change invalidates everything, and it is the only
//     thing that does during a partition script: the script engine
//     itself never touches an arm's cache.
func TestRouteCacheInvalidationWiring(t *testing.T) {
	spec := DefaultSpec()
	spec.Seed = 23
	spec.Nodes = 60
	spec.Mobility = Static // hold versions still between rounds
	w, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	stk, err := w.Protocol("hvdb")
	if err != nil {
		t.Fatal(err)
	}
	stk.Start()
	w.WarmUp(12)
	cache := w.BB.Trees()

	send := func() {
		// The lowest-ID member is up in a static world; one send builds
		// its mesh-tier tree through the route cache. The multicast
		// service fronts the cache with its TTL memo (Config.CacheTTL,
		// 10s by default), so advance past it first: only an expired
		// TTL entry recomputes through bb.Trees().
		w.Sim.RunUntil(w.Sim.Now() + 11)
		if uid := stk.Send(w.Members[0][0], 0, 64); uid == 0 {
			t.Fatal("prime send failed")
		}
		w.Sim.RunUntil(w.Sim.Now() + 1)
	}

	send()
	if cache.Misses == 0 {
		t.Fatal("first send computed no trees through the cache")
	}
	misses := cache.Misses
	send()
	if cache.Hits == 0 {
		t.Fatalf("repeat send at an unchanged version hit nothing (misses %d -> %d)", misses, cache.Misses)
	}

	// Leave: the group's entries must be eagerly dropped.
	inv := cache.Invalidated
	stk.Leave(w.Members[0][1], 0)
	if cache.Invalidated <= inv {
		t.Fatalf("Leave did not invalidate group entries (Invalidated still %d)", cache.Invalidated)
	}

	// Join: same eager hook; first repopulate so there is something to
	// drop. A single-group world has nothing left after Leave, so this
	// send must miss and hit nothing.
	hits, misses := cache.Hits, cache.Misses
	send()
	if cache.Hits != hits || cache.Misses == misses {
		t.Fatalf("send after Leave: hits %d -> %d, misses %d -> %d; want only misses", hits, cache.Hits, misses, cache.Misses)
	}
	inv = cache.Invalidated
	stk.Join(w.Members[0][1], 0)
	if cache.Invalidated <= inv {
		t.Fatalf("Join did not invalidate group entries (Invalidated still %d)", cache.Invalidated)
	}

	// Partition open and heal: the strip's failures change cluster
	// heads at the next election, and the arm's CH-change hook releases
	// the cache. The strip opens and heals half-way between elections
	// (which run on whole seconds); a probe every 0.1 s asserts that
	// Invalidated moves only in an interval where a cluster head
	// changed, so the directive itself must leave the cache alone.
	misses = cache.Misses
	send()
	if cache.Misses == misses {
		t.Fatal("send before the partition did not repopulate the cache")
	}
	inv = cache.Invalidated
	lastInv, lastChanges := inv, w.CM.Changes()
	probe := w.Sim.Every(0.1, 0.1, func() {
		if c := w.CM.Changes(); c != lastChanges {
			lastChanges = c
		} else if cache.Invalidated != lastInv {
			t.Errorf("t=%v: Invalidated moved %d -> %d with no cluster-head change", w.Sim.Now(), lastInv, cache.Invalidated)
		}
		lastInv = cache.Invalidated
	})
	changes := lastChanges
	sc := &Script{Name: "partition-only", Directives: []Directive{
		{At: 0.5, Kind: KindPartition, Frac: 0.25, Duration: 2},
	}}
	if _, err := w.RunScript(stk, sc); err != nil {
		t.Fatal(err)
	}
	probe.Stop()
	if w.CM.Changes() == changes {
		t.Fatal("the partition changed no cluster head: the CH-change hook is not exercised")
	}
	if cache.Invalidated <= inv {
		t.Fatalf("CH changes during the partition did not invalidate the cache (Invalidated still %d)", cache.Invalidated)
	}
	stk.Stop()
	assertNoPacketLeaks(t, w)
}
