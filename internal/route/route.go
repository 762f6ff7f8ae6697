// Package route memoizes multicast-tree construction across the
// protocol plane. Two memos live here:
//
//   - SnapshotMemo, the TTL memo every reused tree goes through: the
//     HVDB data plane's mesh- and cube-tier trees (internal/multicast,
//     the paper's "cache trees for future use") and the snapshot-tree
//     baselines' source and core trees (internal/baseline);
//   - Cache, a version-keyed memo of the HVDB mesh-tier construction
//     itself, which the data plane's TTL misses and QoS admission
//     (multicast.Service.TreeCHs) both resolve through.
//
// # Keying and the determinism argument
//
// A Cache entry is keyed by everything its construction reads:
//
//   - the cluster-topology version (cluster.Manager.Version) — CH
//     occupancy decides which mesh nodes and links exist;
//   - the membership summary version (membership.Service.SummaryVersion)
//     — the MT views supply the destination sets;
//   - the group, the root hypercube, and the slot whose view the tree
//     is computed from.
//
// Tree construction itself is deterministic in those inputs *provided
// destination lists arrive in sorted order* (greedy MulticastTree
// output depends on destination order — see
// TestHardAdmissionDeterministic), so a hit returns exactly what a fresh computation would
// have produced: caching is observationally invisible. SetBypass(true)
// disables lookups so tests can assert that equivalence end to end.
//
// # Invalidation
//
// Entries are replaced in place when a lookup arrives with newer
// versions, so correctness never depends on explicit invalidation.
// The Invalidate hooks exist to release stale entries eagerly — the
// hvdb protocol arm fires them on membership Join/Leave and on every
// cluster-head change — and to keep the cache's footprint proportional
// to the live key set.
package route

import "repro/internal/logicalid"

// Versions is the pair of input-version stamps a memoized tree is
// valid for.
type Versions struct {
	// Topo is the cluster-topology version (CH occupancy).
	Topo uint64
	// Summary is the membership summary-view version.
	Summary uint64
}

// MeshKey identifies one mesh-tier tree: the group, the root
// hypercube, and the CH slot whose MT view supplied the destinations
// (views converge independently per slot, so the slot is part of the
// input set).
type MeshKey struct {
	Group int
	Root  logicalid.HID
	Slot  logicalid.CHID
}

// MeshTree is a mesh-tier multicast tree as parent pointers over
// hypercube IDs (the root maps to itself).
type MeshTree = map[logicalid.HID]logicalid.HID

type meshEntry struct {
	v    Versions
	tree MeshTree
}

// Cache memoizes mesh-tier trees: at most one entry per key, replaced
// when a lookup arrives with different versions, valid only while both
// stamps match. The zero value is ready to use. Returned trees are
// shared: callers must treat them as immutable (every existing
// consumer does — trees are walked, never edited).
type Cache struct {
	bypass bool
	mesh   map[MeshKey]meshEntry

	// Hits and Misses count lookups; Invalidated counts entries dropped
	// by the eager hooks (version-mismatch replacement is not counted —
	// it is the cache's normal operation).
	Hits, Misses, Invalidated uint64
}

// SetBypass disables (true) or re-enables (false) memoization: with
// bypass on every lookup recomputes. Because construction is
// deterministic in the keyed inputs, bypass must not change any
// simulation outcome — the determinism sweep asserts exactly that.
func (c *Cache) SetBypass(b bool) { c.bypass = b }

// MeshTree returns the memoized mesh-tier tree for the key, computing
// it on first use at these versions.
func (c *Cache) MeshTree(v Versions, k MeshKey, compute func() MeshTree) MeshTree {
	if c.bypass {
		return compute()
	}
	if e, ok := c.mesh[k]; ok && e.v == v {
		c.Hits++
		return e.tree
	}
	c.Misses++
	t := compute()
	if c.mesh == nil {
		c.mesh = make(map[MeshKey]meshEntry)
	}
	c.mesh[k] = meshEntry{v: v, tree: t}
	return t
}

// InvalidateGroup eagerly drops every entry of one multicast group —
// the Join/Leave hook.
func (c *Cache) InvalidateGroup(g int) {
	for k := range c.mesh {
		if k.Group == g {
			delete(c.mesh, k)
			c.Invalidated++
		}
	}
}

// InvalidateAll eagerly drops everything — the CH-change hook.
func (c *Cache) InvalidateAll() {
	c.Invalidated += uint64(len(c.mesh))
	clear(c.mesh)
}
