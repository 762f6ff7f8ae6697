// Package route memoizes multicast-tree construction across the
// protocol plane. The HVDB data plane (internal/multicast) and the
// snapshot-tree baselines (internal/baseline) repeatedly rebuild trees
// whose inputs change only when the backbone or the membership views
// change; this package turns those rebuilds into lookups. The QoS
// admission path (internal/qos) shares the data plane's mesh-tree
// entry and stamps its own derived memo with the same Versions.
//
// # Keying and the determinism argument
//
// A memoized tree is keyed by everything its construction reads:
//
//   - the cluster-topology version (cluster.Manager.Version) — CH
//     occupancy decides which mesh nodes, cube labels, and logical
//     links exist;
//   - the membership summary version (membership.Service.SummaryVersion)
//     — the MNT and MT views supply the destination sets;
//   - the group, the root (the slot whose view the tree is computed
//     from), and for cube-tier trees the hypercube.
//
// Tree construction itself is deterministic in those inputs *provided
// destination lists arrive in sorted order* (greedy MulticastTree
// output depends on destination order — see qos.treeCHs' headline
// bugfix), so a hit returns exactly what a fresh computation would
// have produced: caching is observationally invisible. SetBypass(true)
// disables lookups so tests can assert that equivalence end to end.
//
// # Invalidation
//
// Entries are replaced in place when a lookup arrives with newer
// versions, so correctness never depends on explicit invalidation.
// The Invalidate hooks exist to release stale entries eagerly — the
// protocol plane fires them on membership Join/Leave, on cluster-head
// election and failover, and on scenario partition/heal directives —
// and to keep the cache's footprint proportional to the live key set.
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

// CubeKey identifies one cube-tier tree: the hypercube, the entry slot
// (also the slot whose MNT view supplied the destinations), and the
// group.
type CubeKey struct {
	Cube  logicalid.HID
	Entry logicalid.CHID
	Group int
}

// MeshTree is a mesh-tier multicast tree as parent pointers over
// hypercube IDs (the root maps to itself).
type MeshTree = map[logicalid.HID]logicalid.HID

// SlotTree is a cube-tier tree over CH slots — the data plane's tree
// spanning the intra-cube logical link graph.
type SlotTree = map[logicalid.CHID]logicalid.CHID

type entry[V any] struct {
	v   Versions
	val V
}

// Memo is the version-stamped memoization primitive Cache is built
// from: at most one live entry per key, replaced when a lookup arrives
// with different versions, valid only while both stamps match. It is
// exported so consumers memoizing results *derived* from trees (the
// QoS manager's admission memo) share the same validity discipline
// instead of re-implementing it.
type Memo[K comparable, V any] struct {
	entries map[K]entry[V]
}

// Get returns the entry for k if one is stored at exactly these
// versions.
func (m *Memo[K, V]) Get(v Versions, k K) (V, bool) {
	e, ok := m.entries[k]
	if !ok || e.v != v {
		var zero V
		return zero, false
	}
	return e.val, true
}

// Put stores val for k at the given versions, replacing any previous
// entry for k.
func (m *Memo[K, V]) Put(v Versions, k K, val V) {
	if m.entries == nil {
		m.entries = make(map[K]entry[V])
	}
	m.entries[k] = entry[V]{v: v, val: val}
}

// Invalidate drops every entry whose key matches pred, returning how
// many were dropped.
func (m *Memo[K, V]) Invalidate(pred func(K) bool) int {
	n := 0
	for k := range m.entries {
		if pred(k) {
			delete(m.entries, k)
			n++
		}
	}
	return n
}

// Len returns the number of live entries.
func (m *Memo[K, V]) Len() int { return len(m.entries) }

// Cache memoizes the two tree families of the data plane. The
// zero value is ready to use. Returned trees are shared: callers must
// treat them as immutable (every existing consumer does — trees are
// walked, never edited).
type Cache struct {
	bypass bool

	mesh        Memo[MeshKey, MeshTree]
	cubeLogical Memo[CubeKey, SlotTree]

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

// Bypassed reports whether the cache is in bypass mode.
func (c *Cache) Bypassed() bool { return c.bypass }

// MeshTree returns the memoized mesh-tier tree for the key, computing
// it on first use at these versions.
func (c *Cache) MeshTree(v Versions, k MeshKey, compute func() MeshTree) MeshTree {
	if c.bypass {
		return compute()
	}
	if t, ok := c.mesh.Get(v, k); ok {
		c.Hits++
		return t
	}
	c.Misses++
	t := compute()
	c.mesh.Put(v, k, t)
	return t
}

// CubeSlotTree returns the memoized logical-link-graph cube tree for
// the key (the data plane's Figure 6 step 4 tree).
func (c *Cache) CubeSlotTree(v Versions, k CubeKey, compute func() SlotTree) SlotTree {
	if c.bypass {
		return compute()
	}
	if t, ok := c.cubeLogical.Get(v, k); ok {
		c.Hits++
		return t
	}
	c.Misses++
	t := compute()
	c.cubeLogical.Put(v, k, t)
	return t
}

// InvalidateGroup eagerly drops every entry of one multicast group —
// the Join/Leave hook.
func (c *Cache) InvalidateGroup(g int) {
	n := c.mesh.Invalidate(func(k MeshKey) bool { return k.Group == g })
	n += c.cubeLogical.Invalidate(func(k CubeKey) bool { return k.Group == g })
	c.Invalidated += uint64(n)
}

// InvalidateAll eagerly drops everything — the CH-churn and
// partition/heal hook.
func (c *Cache) InvalidateAll() {
	n := c.mesh.Invalidate(func(MeshKey) bool { return true })
	n += c.cubeLogical.Invalidate(func(CubeKey) bool { return true })
	c.Invalidated += uint64(n)
}

// Len returns the number of live entries across both tree families.
func (c *Cache) Len() int {
	return c.mesh.Len() + c.cubeLogical.Len()
}
