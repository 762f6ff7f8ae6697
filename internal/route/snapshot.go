package route

import "repro/internal/des"

// SnapshotMemo is the TTL tree memo: an entry stays valid for a fixed
// staleness window regardless of what the network does meanwhile. It
// holds the HVDB data plane's reused mesh- and cube-tier trees (the
// paper's Figure 6 "computes (or reuses from cache)") and the
// snapshot-based baselines' trees (DSM's per-sender source trees,
// CBT's shared core tree). That staleness is protocol behavior — for
// the baselines it is exactly the weakness of snapshot schemes the
// paper's comparison quantifies — so unlike Cache, a SnapshotMemo hit
// may legitimately differ from a fresh computation and there is no
// bypass equivalence.
type SnapshotMemo[K comparable, V any] struct {
	entries map[K]snapEntry[V]
}

type snapEntry[V any] struct {
	val     V
	expires des.Time
}

// Get returns the entry for k and true if it is still valid at now
// (expires >= now); otherwise it computes the value, stores it to
// expire at now + ttl, and returns it with false.
func (m *SnapshotMemo[K, V]) Get(now des.Time, ttl des.Duration, k K, compute func() V) (V, bool) {
	if e, ok := m.entries[k]; ok && e.expires >= now {
		return e.val, true
	}
	v := compute()
	if m.entries == nil {
		m.entries = make(map[K]snapEntry[V])
	}
	m.entries[k] = snapEntry[V]{val: v, expires: now + ttl}
	return v, false
}
