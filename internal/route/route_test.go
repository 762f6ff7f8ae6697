package route

import (
	"testing"

	"repro/internal/des"
	"repro/internal/logicalid"
)

func TestCacheHitMissAndVersionReplacement(t *testing.T) {
	var c Cache
	v1 := Versions{Topo: 1, Summary: 1}
	k := MeshKey{Group: 0, Root: 2, Slot: 7}
	computes := 0
	compute := func() MeshTree {
		computes++
		return MeshTree{2: 2}
	}

	t1 := c.MeshTree(v1, k, compute)
	if computes != 1 || c.Misses != 1 || c.Hits != 0 {
		t.Fatalf("first lookup: computes=%d hits=%d misses=%d", computes, c.Hits, c.Misses)
	}
	t2 := c.MeshTree(v1, k, compute)
	if computes != 1 || c.Hits != 1 {
		t.Fatalf("second lookup should hit: computes=%d hits=%d", computes, c.Hits)
	}
	// Hits share the stored tree: caching is memoization, not copying.
	if len(t1) != 1 || len(t2) != 1 || t2[2] != 2 {
		t.Fatalf("hit returned wrong tree %v", t2)
	}

	// A version move replaces the entry in place — no unbounded growth.
	v2 := Versions{Topo: 2, Summary: 1}
	c.MeshTree(v2, k, compute)
	if computes != 2 {
		t.Fatal("topology version move must recompute")
	}
	if len(c.mesh) != 1 {
		t.Fatalf("stale entry not replaced: len=%d", len(c.mesh))
	}
	c.MeshTree(Versions{Topo: 2, Summary: 9}, k, compute)
	if computes != 3 {
		t.Fatal("summary version move must recompute")
	}
}

func TestCacheKeysAreIndependent(t *testing.T) {
	var c Cache
	v := Versions{Topo: 1, Summary: 1}
	c.MeshTree(v, MeshKey{Group: 0, Root: 1, Slot: 4}, func() MeshTree { return MeshTree{1: 1} })
	c.MeshTree(v, MeshKey{Group: 1, Root: 1, Slot: 4}, func() MeshTree { return MeshTree{1: 1} })
	c.MeshTree(v, MeshKey{Group: 0, Root: 1, Slot: 5}, func() MeshTree { return MeshTree{1: 1} })
	if len(c.mesh) != 3 {
		t.Fatalf("expected 3 independent entries, got %d", len(c.mesh))
	}
	if c.Misses != 3 {
		t.Fatalf("misses=%d want 3", c.Misses)
	}
}

func TestCacheBypassRecomputes(t *testing.T) {
	var c Cache
	v := Versions{Topo: 1, Summary: 1}
	k := MeshKey{Group: 0, Root: 0, Slot: 0}
	computes := 0
	compute := func() MeshTree { computes++; return nil }
	c.SetBypass(true)
	c.MeshTree(v, k, compute)
	c.MeshTree(v, k, compute)
	if computes != 2 {
		t.Fatalf("bypass must recompute every lookup, computes=%d", computes)
	}
	if len(c.mesh) != 0 {
		t.Fatal("bypass must not store entries")
	}
	c.SetBypass(false)
	c.MeshTree(v, k, compute)
	c.MeshTree(v, k, compute)
	if computes != 3 {
		t.Fatal("re-enabled cache should memoize again")
	}
}

func TestCacheInvalidation(t *testing.T) {
	var c Cache
	v := Versions{Topo: 1, Summary: 1}
	mk := func(g int) MeshKey { return MeshKey{Group: g, Root: 0, Slot: 0} }
	for g := 0; g < 3; g++ {
		c.MeshTree(v, mk(g), func() MeshTree { return nil })
	}
	if len(c.mesh) != 3 {
		t.Fatalf("len=%d want 3", len(c.mesh))
	}
	c.InvalidateGroup(1)
	if len(c.mesh) != 2 {
		t.Fatalf("group eviction left len=%d want 2", len(c.mesh))
	}
	if c.Invalidated != 1 {
		t.Fatalf("Invalidated=%d want 1", c.Invalidated)
	}
	c.InvalidateAll()
	if len(c.mesh) != 0 || c.Invalidated != 3 {
		t.Fatalf("InvalidateAll left len=%d invalidated=%d", len(c.mesh), c.Invalidated)
	}
	// Evicted keys recompute on next lookup.
	misses := c.Misses
	c.MeshTree(v, mk(0), func() MeshTree { return nil })
	if c.Misses != misses+1 {
		t.Fatal("evicted key should miss")
	}
}

func TestSnapshotMemoTTL(t *testing.T) {
	var m SnapshotMemo[int, int]
	computes := 0
	get := func(now des.Time) (int, bool) {
		return m.Get(now, 2, 7, func() int { computes++; return computes })
	}
	if got, hit := get(0); got != 1 || hit {
		t.Fatalf("first get (%d, %v) want (1, false)", got, hit)
	}
	// The window is closed: an entry stamped at 0 with TTL 2 still hits
	// at exactly 2.
	if got, hit := get(2); got != 1 || !hit {
		t.Fatalf("within TTL got (%d, %v) want cached (1, true)", got, hit)
	}
	if got, hit := get(2.5); got != 2 || hit {
		t.Fatalf("past TTL got (%d, %v) want recomputed (2, false)", got, hit)
	}
	if len(m.entries) != 1 {
		t.Fatalf("len=%d want 1", len(m.entries))
	}
}

// TestKeyTypes pins the key fields to the logical identifier types so a
// refactor cannot silently widen or narrow the cache key space.
func TestKeyTypes(t *testing.T) {
	k := MeshKey{Group: 1, Root: logicalid.HID(2), Slot: logicalid.CHID(3)}
	if k.Root != 2 || k.Slot != 3 {
		t.Fatal("mesh key fields scrambled")
	}
}
