package meshtier

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"repro/internal/xrand"
)

// complete returns a mesh with every node present.
func complete(cols, rows int) *Mesh {
	m := New(cols, rows)
	for id := 0; id < m.Size(); id++ {
		m.Add(ID(id))
	}
	return m
}

func TestShapeAndCoords(t *testing.T) {
	m := complete(4, 3)
	if m.Cols() != 4 || m.Rows() != 3 || m.Size() != 12 || m.Count() != 12 {
		t.Fatal("shape wrong")
	}
	x, y := m.Shape().coord(7)
	if x != 3 || y != 1 {
		t.Fatalf("coord(7) = %d,%d", x, y)
	}
	if m.At(3, 1) != 7 {
		t.Fatalf("At(3,1) = %d", m.At(3, 1))
	}
	if m.At(-1, 0) != -1 || m.At(4, 0) != -1 || m.At(0, 3) != -1 {
		t.Fatal("out-of-mesh At should be -1")
	}
}

func TestNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	New(0, 5)
}

func TestAddRemove(t *testing.T) {
	m := New(3, 3)
	m.Add(4)
	m.Add(4)
	if m.Count() != 1 || !m.Has(4) {
		t.Fatal("Add failed")
	}
	m.Remove(4)
	if m.Count() != 0 || m.Has(4) {
		t.Fatal("Remove failed")
	}
	if m.Has(-1) || m.Has(9) {
		t.Fatal("out-of-range Has should be false")
	}
}

func TestAddPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	New(2, 2).Add(4)
}

func TestNeighbors(t *testing.T) {
	m := complete(3, 3)
	if got := len(m.Shape().Adjacent(4, nil)); got != 4 { // center
		t.Fatalf("center neighbors %d", got)
	}
	if got := len(m.Shape().Adjacent(0, nil)); got != 2 { // corner
		t.Fatalf("corner neighbors %d", got)
	}
}

func TestXYPath(t *testing.T) {
	m := complete(4, 4)
	p := m.Shape().Path(0, 15, nil) // (0,0) -> (3,3)
	if len(p) != 7 {
		t.Fatalf("XY path length %d want 7", len(p))
	}
	// X-first: second node is (1,0) = 1.
	if p[1] != 1 {
		t.Fatalf("XY path %v should go x-first", p)
	}
	// Reverse direction.
	q := m.Shape().Path(15, 0, nil)
	if len(q) != 7 || q[1] != 14 {
		t.Fatalf("reverse XY path %v", q)
	}
}

func TestRouteCompleteAndFault(t *testing.T) {
	m := complete(4, 4)
	p := m.Route(0, 15)
	if len(p) != 7 {
		t.Fatalf("route length %d", len(p))
	}
	// Punch out the XY path's corner; route must detour at same length.
	m.Remove(3) // (3,0), the XY turn point
	p = m.Route(0, 15)
	if p == nil || len(p) != 7 {
		t.Fatalf("detour route %v", p)
	}
	for _, id := range p {
		if id == 3 {
			t.Fatal("route through removed node")
		}
	}
}

func TestRouteAdjacencyValidity(t *testing.T) {
	rng := xrand.New(1)
	for trial := 0; trial < 200; trial++ {
		m := complete(5, 5)
		for i := 0; i < 8; i++ {
			m.Remove(ID(rng.Intn(25)))
		}
		ids := m.Members()
		if len(ids) < 2 {
			continue
		}
		src := ids[rng.Intn(len(ids))]
		dst := ids[rng.Intn(len(ids))]
		p := m.Route(src, dst)
		if p == nil {
			continue
		}
		for i := 1; i < len(p); i++ {
			x1, y1 := m.Shape().coord(p[i-1])
			x2, y2 := m.Shape().coord(p[i])
			man := abs(x1-x2) + abs(y1-y2)
			if man != 1 || !m.Has(p[i]) {
				t.Fatalf("invalid route step %d->%d in %v", p[i-1], p[i], p)
			}
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestRouteDisconnected(t *testing.T) {
	m := New(3, 1)
	m.Add(0)
	m.Add(2)
	if m.Route(0, 2) != nil {
		t.Fatal("disconnected route should be nil")
	}
	if m.Distance(0, 2) != -1 {
		t.Fatal("disconnected distance should be -1")
	}
}

func TestRouteSelfAndMissing(t *testing.T) {
	m := complete(2, 2)
	if p := m.Route(1, 1); len(p) != 1 {
		t.Fatalf("self route %v", p)
	}
	m.Remove(0)
	if m.Route(0, 1) != nil || m.Route(1, 0) != nil {
		t.Fatal("route with absent endpoint should be nil")
	}
}

func TestConnected(t *testing.T) {
	m := New(3, 3)
	if !m.Connected() {
		t.Fatal("empty mesh vacuously connected")
	}
	m.Add(0)
	m.Add(8)
	if m.Connected() {
		t.Fatal("two distant nodes disconnected")
	}
	for _, id := range []ID{1, 2, 5} {
		m.Add(id)
	}
	if !m.Connected() {
		t.Fatal("L-chain should connect 0 to 8")
	}
}

func TestMulticastTree(t *testing.T) {
	m := complete(4, 4)
	tree, missed := m.MulticastTree(0, []ID{5, 15, 12})
	if len(missed) != 0 {
		t.Fatalf("missed %v", missed)
	}
	for _, d := range []ID{5, 15, 12} {
		cur := d
		for steps := 0; cur != 0; steps++ {
			if steps > 16 {
				t.Fatalf("dest %d does not reach root", d)
			}
			parent, ok := tree[cur]
			if !ok {
				t.Fatalf("dangling node %d", cur)
			}
			x1, y1 := m.Shape().coord(parent)
			x2, y2 := m.Shape().coord(cur)
			if abs(x1-x2)+abs(y1-y2) != 1 {
				t.Fatalf("non-adjacent tree edge %d-%d", parent, cur)
			}
			cur = parent
		}
	}
}

func TestMulticastTreeSharing(t *testing.T) {
	m := complete(4, 1) // a line: 0-1-2-3
	tree, _ := m.MulticastTree(0, []ID{2, 3})
	// Path to 3 extends path to 2; tree = {0,1,2,3}.
	if len(tree) != 4 {
		t.Fatalf("tree size %d want 4: %v", len(tree), tree)
	}
}

func TestMulticastTreeFaultsAndMissed(t *testing.T) {
	m := complete(3, 3)
	m.Remove(1) // block XY path 0->2
	tree, missed := m.MulticastTree(0, []ID{2})
	if len(missed) != 0 {
		t.Fatalf("missed %v; a detour exists", missed)
	}
	cur := ID(2)
	for cur != 0 {
		parent := tree[cur]
		if parent == 1 {
			t.Fatal("tree through removed node")
		}
		cur = parent
	}
	// Isolate node 8.
	m.Remove(5)
	m.Remove(7)
	_, missed = m.MulticastTree(0, []ID{8})
	if len(missed) != 1 || missed[0] != 8 {
		t.Fatalf("missed %v want [8]", missed)
	}
	// Absent root misses everything.
	m2 := New(2, 2)
	m2.Add(1)
	_, missed2 := m2.MulticastTree(0, []ID{1})
	if len(missed2) != 1 {
		t.Fatal("absent root should miss all")
	}
}

func TestDistanceCompleteManhattan(t *testing.T) {
	m := complete(6, 6)
	rng := xrand.New(2)
	for trial := 0; trial < 100; trial++ {
		a, b := ID(rng.Intn(36)), ID(rng.Intn(36))
		x1, y1 := m.Shape().coord(a)
		x2, y2 := m.Shape().coord(b)
		if got := m.Distance(a, b); got != abs(x1-x2)+abs(y1-y2) {
			t.Fatalf("distance %d->%d = %d want manhattan", a, b, got)
		}
	}
}

// TestTreeShapesPinned holds Route, MulticastTree and Connected to the
// outputs recorded on c0d7d44, before the tier's algorithms moved into
// package graph, over a seeded family of incomplete meshes up to 14x14.
// A tie-break change (neighbour order, BFS fallback, prefix trimming)
// fails here rather than only as a simulated-outcome digest mismatch.
func TestTreeShapesPinned(t *testing.T) {
	const want uint64 = 0x60685a1ca1836a1e
	rng := xrand.New(33)
	h := fnv.New64a()
	var b [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	for _, shape := range [][2]int{{1, 1}, {2, 3}, {4, 4}, {5, 3}, {7, 7}, {9, 12}, {14, 6}, {14, 14}} {
		for trial := 0; trial < 6; trial++ {
			m := complete(shape[0], shape[1])
			fault := []float64{0, 0.1, 0.25}[trial%3]
			for id := 0; id < m.Size(); id++ {
				if rng.Bool(fault) {
					m.Remove(ID(id))
				}
			}
			for src := 0; src < m.Size(); src++ {
				for dst := 0; dst < m.Size(); dst++ {
					p := m.Route(ID(src), ID(dst))
					put(len(p))
					for _, id := range p {
						put(int(id))
					}
				}
			}
			if m.Connected() {
				put(1)
			}
			for r := 0; r < 6; r++ {
				root := ID(rng.Intn(m.Size()))
				dests := make([]ID, rng.Intn(m.Size()))
				for i := range dests {
					dests[i] = ID(rng.Intn(m.Size()))
				}
				tree, missed := m.MulticastTree(root, dests)
				for id := 0; id < m.Size(); id++ {
					if p, ok := tree[ID(id)]; ok {
						put(id)
						put(int(p))
					}
				}
				put(-1)
				for _, id := range missed {
					put(int(id))
				}
				put(-2)
			}
		}
	}
	if got := h.Sum64(); got != want {
		t.Fatalf("tree/route shapes hash %#x, want %#x", got, want)
	}
}
