package hypercube

import (
	"encoding/binary"
	"hash/fnv"
	"math/bits"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

// hamming is the paper's H(u, v): the number of bits in which two
// labels differ.
func hamming(a, b Label) int { return bits.OnesCount32(uint32(a ^ b)) }

func TestLabelBits(t *testing.T) {
	if got := Label(0b0101).Bits(4); got != "0101" {
		t.Fatalf("Bits=%q", got)
	}
	if got := Label(1).Bits(6); got != "000001" {
		t.Fatalf("Bits=%q", got)
	}
}

func TestFlipAndBit(t *testing.T) {
	l := Label(0b1000)
	if l.Flip(0) != 0b1001 || l.Flip(3) != 0b0000 {
		t.Fatal("Flip wrong")
	}
	if l.Bit(3) != 1 || l.Bit(0) != 0 {
		t.Fatal("Bit wrong")
	}
}

func TestNewPanicsOnBadDim(t *testing.T) {
	for _, dim := range []int{0, -1, MaxDim + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) should panic", dim)
				}
			}()
			New(dim)
		}()
	}
}

func TestCompleteProperties(t *testing.T) {
	for dim := 1; dim <= 6; dim++ {
		c := Complete(dim)
		if c.Count() != 1<<uint(dim) {
			t.Fatalf("dim %d count %d", dim, c.Count())
		}
		if !c.Connected() {
			t.Fatalf("complete %d-cube not connected", dim)
		}
		// The paper: diameter of the hypercube is n.
		if got := c.Diameter(); got != dim {
			t.Fatalf("complete %d-cube diameter %d want %d", dim, got, dim)
		}
		// Regularity: every node has exactly n neighbors.
		for _, l := range c.Labels() {
			n := 0
			for _, nb := range AllNeighbors(l, dim) {
				if c.Has(nb) {
					n++
				}
			}
			if n != dim {
				t.Fatalf("node %v has %d neighbors want %d", l, n, dim)
			}
		}
	}
}

func TestAddRemove(t *testing.T) {
	c := New(3)
	if c.Count() != 0 || c.Has(0) {
		t.Fatal("fresh cube should be empty")
	}
	c.Add(5)
	c.Add(5) // idempotent
	if c.Count() != 1 || !c.Has(5) {
		t.Fatal("Add failed")
	}
	c.Remove(5)
	c.Remove(5) // idempotent
	if c.Count() != 0 || c.Has(5) {
		t.Fatal("Remove failed")
	}
}

func TestAddOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	New(3).Add(8)
}

func TestECubePath(t *testing.T) {
	// E-cube corrects lowest dimension first.
	path := dims(3).Path(0b000, 0b101, nil)
	want := []Label{0b000, 0b001, 0b101}
	if len(path) != len(want) {
		t.Fatalf("path %v want %v", path, want)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path %v want %v", path, want)
		}
	}
	if got := ECubeNext(3, 3); got != 3 {
		t.Fatalf("self next %v", got)
	}
}

func TestECubePathLengthIsHammingProperty(t *testing.T) {
	f := func(a, b uint16) bool {
		src, dst := Label(a&0xFF), Label(b&0xFF)
		return len(dims(8).Path(src, dst, nil))-1 == hamming(src, dst)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRouteComplete(t *testing.T) {
	c := Complete(4)
	p := c.Route(0b0000, 0b1111)
	if len(p) != 5 {
		t.Fatalf("route length %d want 5", len(p))
	}
	if p[0] != 0 || p[len(p)-1] != 0b1111 {
		t.Fatal("route endpoints wrong")
	}
	for i := 1; i < len(p); i++ {
		if hamming(p[i-1], p[i]) != 1 {
			t.Fatalf("route step %v -> %v is not a hypercube edge", p[i-1], p[i])
		}
	}
}

func TestRouteAroundFault(t *testing.T) {
	c := Complete(3)
	// E-cube path 000 -> 001 -> 011 -> 111; remove 001 to force detour.
	c.Remove(0b001)
	p := c.Route(0b000, 0b111)
	if p == nil {
		t.Fatal("route should exist around single fault")
	}
	if len(p)-1 != 3 { // another shortest path exists: 000-010-011-111
		t.Fatalf("detour length %d want 3", len(p)-1)
	}
	for _, l := range p {
		if l == 0b001 {
			t.Fatal("route used removed node")
		}
	}
}

func TestRouteDisconnected(t *testing.T) {
	c := New(3)
	c.Add(0b000)
	c.Add(0b111)
	if p := c.Route(0b000, 0b111); p != nil {
		t.Fatalf("route across void should be nil, got %v", p)
	}
	if d := c.Distance(0b000, 0b111); d != -1 {
		t.Fatalf("distance %d want -1", d)
	}
}

func TestRouteSelf(t *testing.T) {
	c := Complete(3)
	p := c.Route(5, 5)
	if len(p) != 1 || p[0] != 5 {
		t.Fatalf("self route %v", p)
	}
	if c.Distance(5, 5) != 0 {
		t.Fatal("self distance")
	}
}

func TestRouteMissingEndpoint(t *testing.T) {
	c := Complete(3)
	c.Remove(0)
	if c.Route(0, 5) != nil || c.Route(5, 0) != nil {
		t.Fatal("route to/from absent node should be nil")
	}
}

func TestDisjointPathsCount(t *testing.T) {
	// The paper: n node-disjoint paths between each pair.
	for dim := 2; dim <= 6; dim++ {
		paths := DisjointPaths(0, Label(1<<uint(dim))-1, dim)
		if len(paths) != dim {
			t.Fatalf("dim %d: %d paths want %d", dim, len(paths), dim)
		}
	}
	paths := DisjointPaths(0b0000, 0b0011, 4)
	if len(paths) != 4 {
		t.Fatalf("got %d paths want 4", len(paths))
	}
}

func TestDisjointPathsAreDisjointAndValid(t *testing.T) {
	rng := xrand.New(1)
	for trial := 0; trial < 200; trial++ {
		dim := 2 + rng.Intn(5)
		src := Label(rng.Intn(1 << uint(dim)))
		dst := Label(rng.Intn(1 << uint(dim)))
		if src == dst {
			continue
		}
		paths := DisjointPaths(src, dst, dim)
		interior := map[Label]int{}
		for pi, p := range paths {
			if p[0] != src || p[len(p)-1] != dst {
				t.Fatalf("path %d endpoints wrong: %v", pi, p)
			}
			for i := 1; i < len(p); i++ {
				if hamming(p[i-1], p[i]) != 1 {
					t.Fatalf("path %d has non-edge step: %v", pi, p)
				}
			}
			for _, l := range p[1 : len(p)-1] {
				if prev, ok := interior[l]; ok {
					t.Fatalf("node %v shared by paths %d and %d", l, prev, pi)
				}
				interior[l] = pi
			}
		}
	}
}

func TestDisjointPathsSelf(t *testing.T) {
	paths := DisjointPaths(3, 3, 4)
	if len(paths) != 1 || len(paths[0]) != 1 {
		t.Fatalf("self paths %v", paths)
	}
}

func TestAvailablePaths(t *testing.T) {
	c := Complete(4)
	if got := c.AvailablePaths(0b0000, 0b1111); got != 4 {
		t.Fatalf("complete cube available paths %d want 4", got)
	}
	// Removing one interior node kills at most one disjoint path.
	c.Remove(0b0001)
	got := c.AvailablePaths(0b0000, 0b1111)
	if got != 3 {
		t.Fatalf("after one fault %d want 3", got)
	}
	if c.AvailablePaths(0b0001, 0b1111) != 0 {
		t.Fatal("absent endpoint should have 0 paths")
	}
}

// The paper's fault-tolerance claim: the n-cube survives any n-1 node
// failures (connectivity of the rest, when the failed nodes are interior
// to routes, still allows routing between surviving pairs).
func TestSustainsNMinus1Failures(t *testing.T) {
	rng := xrand.New(2)
	for trial := 0; trial < 100; trial++ {
		dim := 3 + rng.Intn(3)
		c := Complete(dim)
		// Fail dim-1 random nodes (never src/dst).
		src := Label(0)
		dst := Label(1<<uint(dim)) - 1
		failed := 0
		for failed < dim-1 {
			l := Label(rng.Intn(1 << uint(dim)))
			if l == src || l == dst || !c.Has(l) {
				continue
			}
			c.Remove(l)
			failed++
		}
		if c.Route(src, dst) == nil {
			t.Fatalf("dim %d: src-dst disconnected by only %d failures", dim, dim-1)
		}
	}
}

func TestConnected(t *testing.T) {
	c := New(3)
	if !c.Connected() {
		t.Fatal("empty cube is vacuously connected")
	}
	c.Add(0)
	if !c.Connected() {
		t.Fatal("singleton connected")
	}
	c.Add(0b111)
	if c.Connected() {
		t.Fatal("two antipodal nodes are disconnected")
	}
	c.Add(0b001)
	c.Add(0b011)
	if !c.Connected() {
		t.Fatal("chain should be connected")
	}
}

func TestDiameterIncomplete(t *testing.T) {
	c := Complete(3)
	// Removing node 001 lengthens no pair beyond 3 in a 3-cube? It can:
	// dist(000,011) becomes 000-010-011 = 2 still. Diameter stays 3.
	c.Remove(0b001)
	if d := c.Diameter(); d < 3 {
		t.Fatalf("diameter %d want >= 3", d)
	}
	empty := New(3)
	if empty.Diameter() != -1 {
		t.Fatal("empty diameter should be -1")
	}
}

func TestMulticastTreeComplete(t *testing.T) {
	c := Complete(4)
	root := Label(0b0000)
	dests := []Label{0b0001, 0b0011, 0b1111, 0b1000}
	tree, missed := c.MulticastTree(root, dests)
	if len(missed) != 0 {
		t.Fatalf("missed %v", missed)
	}
	for _, d := range dests {
		// Every destination must reach the root via parent pointers.
		cur := d
		for steps := 0; cur != root; steps++ {
			if steps > 16 {
				t.Fatalf("dest %v does not reach root", d)
			}
			parent, ok := tree[cur]
			if !ok {
				t.Fatalf("dest %v dangling at %v", d, cur)
			}
			if hamming(parent, cur) != 1 {
				t.Fatalf("tree edge %v-%v not a hypercube edge", parent, cur)
			}
			cur = parent
		}
	}
}

func TestMulticastTreeSharesPrefixes(t *testing.T) {
	c := Complete(4)
	// Destinations 0011 and 0111 share the e-cube prefix through 0001
	// and 0011; tree size should reflect sharing, not two full paths.
	tree, _ := c.MulticastTree(0b0000, []Label{0b0011, 0b0111})
	// Nodes: 0000, 0001, 0011, 0111 => 4 entries.
	if len(tree) != 4 {
		t.Fatalf("tree has %d nodes want 4 (prefix sharing): %v", len(tree), tree)
	}
}

func TestMulticastTreeAroundFaults(t *testing.T) {
	c := Complete(4)
	c.Remove(0b0001) // blocks the e-cube path 0000->0001->0011
	tree, missed := c.MulticastTree(0b0000, []Label{0b0011})
	if len(missed) != 0 {
		t.Fatalf("missed %v despite alternate routes", missed)
	}
	cur := Label(0b0011)
	for cur != 0b0000 {
		parent, ok := tree[cur]
		if !ok {
			t.Fatal("dangling tree node")
		}
		if parent == 0b0001 {
			t.Fatal("tree uses removed node")
		}
		cur = parent
	}
}

func TestMulticastTreeMissedDests(t *testing.T) {
	c := Complete(3)
	c.Remove(0b111)
	_, missed := c.MulticastTree(0, []Label{0b111, 0b011})
	if len(missed) != 1 || missed[0] != 0b111 {
		t.Fatalf("missed %v want [111]", missed)
	}
	// Absent root: everything missed.
	c2 := New(3)
	c2.Add(1)
	_, missed2 := c2.MulticastTree(0, []Label{1})
	if len(missed2) != 1 {
		t.Fatalf("absent root should miss all dests, got %v", missed2)
	}
}

// Property: in random incomplete cubes, Route returns a valid present
// path whenever the endpoints are connected, and its length equals the
// BFS distance hopDistance computes independently (shortest).
func TestRouteShortestProperty(t *testing.T) {
	rng := xrand.New(3)
	for trial := 0; trial < 300; trial++ {
		dim := 3 + rng.Intn(3)
		c := Complete(dim)
		removals := rng.Intn(c.Size() / 2)
		for i := 0; i < removals; i++ {
			c.Remove(Label(rng.Intn(c.Size())))
		}
		labels := c.Labels()
		if len(labels) < 2 {
			continue
		}
		src := labels[rng.Intn(len(labels))]
		dst := labels[rng.Intn(len(labels))]
		p := c.Route(src, dst)
		want := hopDistance(c, src, dst)
		if src == dst {
			continue
		}
		if (p == nil) != (want < 0) {
			t.Fatalf("route/bfs disagree on reachability %v->%v", src, dst)
		}
		if p == nil {
			continue
		}
		if len(p)-1 != want {
			t.Fatalf("route len %d but bfs distance %d", len(p), want)
		}
		for i := 1; i < len(p); i++ {
			if hamming(p[i-1], p[i]) != 1 || !c.Has(p[i]) {
				t.Fatalf("invalid route %v", p)
			}
		}
	}
}

// hopDistance is the reference for TestRouteShortestProperty: the hop
// count of a shortest src->dst path through c's present labels, by a
// breadth-first search of its own, or -1 if there is none.
func hopDistance(c *Cube, src, dst Label) int {
	dist := map[Label]int{src: 0}
	for queue := []Label{src}; len(queue) > 0; queue = queue[1:] {
		u := queue[0]
		if u == dst {
			return dist[u]
		}
		for i := 0; i < c.Dim(); i++ {
			if v := u.Flip(i); c.Has(v) {
				if _, ok := dist[v]; !ok {
					dist[v] = dist[u] + 1
					queue = append(queue, v)
				}
			}
		}
	}
	return -1
}

// TestTreeShapesPinned holds Route, MulticastTree, Connected and Diameter
// to the outputs recorded on c0d7d44, before the tier's algorithms moved
// into package graph, over a seeded family of incomplete cubes of
// dimension 2..6. A tie-break change (neighbour order, BFS fallback,
// prefix trimming) fails here rather than only as a simulated-outcome
// digest mismatch.
func TestTreeShapesPinned(t *testing.T) {
	const want uint64 = 0x97822f315a2ff21e
	rng := xrand.New(33)
	h := fnv.New64a()
	var b [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	for dim := 2; dim <= 6; dim++ {
		for trial := 0; trial < 8; trial++ {
			c := Complete(dim)
			fault := []float64{0, 0.1, 0.25, 0.45}[trial%4]
			for l := 0; l < c.Size(); l++ {
				if rng.Bool(fault) {
					c.Remove(Label(l))
				}
			}
			for src := 0; src < c.Size(); src++ {
				for dst := 0; dst < c.Size(); dst++ {
					p := c.Route(Label(src), Label(dst))
					put(len(p))
					for _, l := range p {
						put(int(l))
					}
				}
			}
			if c.Connected() {
				put(1)
			}
			put(c.Diameter())
			for r := 0; r < 6; r++ {
				root := Label(rng.Intn(c.Size()))
				dests := make([]Label, rng.Intn(c.Size()))
				for i := range dests {
					dests[i] = Label(rng.Intn(c.Size()))
				}
				tree, missed := c.MulticastTree(root, dests)
				for l := 0; l < c.Size(); l++ {
					if p, ok := tree[Label(l)]; ok {
						put(l)
						put(int(p))
					}
				}
				put(-1)
				for _, l := range missed {
					put(int(l))
				}
				put(-2)
			}
		}
	}
	if got := h.Sum64(); got != want {
		t.Fatalf("tree/route shapes hash %#x, want %#x", got, want)
	}
}
