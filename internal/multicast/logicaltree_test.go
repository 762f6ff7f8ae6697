package multicast

import (
	"testing"

	"repro/internal/hypercube"
	"repro/internal/logicalid"
	"repro/internal/vcgrid"
)

// TestDeliveryWhenLabelGraphDisconnected is the regression test for the
// intra-cube tree: with enough CHs dead, the hypercube's *label* graph
// (bit-flip edges only) disconnects, but the paper's 1-logical-hop
// routes also include grid-adjacent links, so delivery must survive.
func TestDeliveryWhenLabelGraphDisconnected(t *testing.T) {
	tb := newTestbed(t, DefaultConfig())
	// Kill CHs so that label 0000 (VC (0,0)) keeps only grid links:
	// its label neighbors are 0001 (1,0), 0010 (0,1), 0100 (2,0),
	// 1000 (0,2). Kill all four label neighbors' CHs; (0,0) stays
	// reachable via... nothing! So instead isolate label-wise a member
	// VC but keep one grid link: kill 0001(1,0), 0100(2,0), 1000(0,2)
	// and keep 0010(0,1) — which is both a label and grid neighbor.
	// For a pure grid-only case, use member at (1,1) = label 0011 whose
	// label neighbors are 0001(1,0), 0010(0,1), 0111(3,1), 1011(1,3):
	// kill those four; (1,1) keeps grid links to (2,1) and (1,2).
	for _, v := range []vcgrid.VC{{CX: 1, CY: 0}, {CX: 0, CY: 1}, {CX: 3, CY: 1}, {CX: 1, CY: 3}} {
		tb.net.Node(tb.cm.CHOf(v)).Fail()
	}
	tb.cm.Elect()

	// Sanity: the member VC's label is now disconnected from the entry
	// label in the pure label graph... (not necessarily fully
	// disconnected; assert at least that all four label neighbors are
	// absent).
	cube := tb.bb.Cube(0)
	place := tb.scheme.PlaceOf(vcgrid.VC{CX: 1, CY: 1})
	for _, nb := range hypercube.AllNeighbors(place.HNID, cube.Dim()) {
		if cube.Has(nb) {
			t.Fatalf("label 0011 still has label neighbor %v; setup wrong", nb)
		}
	}

	member := tb.addMember(tb.grid.Index(vcgrid.VC{CX: 1, CY: 1}), 30, 0)
	src := tb.addMember(tb.grid.Index(vcgrid.VC{CX: 2, CY: 2}), 20, 0)
	tb.ms.Join(member.ID, 5)
	tb.prepare()
	uid := tb.mc.Send(src.ID, 5, 128)
	tb.drain()
	if !tb.deliveredTo(uid, member.ID) {
		t.Fatal("delivery failed despite surviving grid-adjacency logical links")
	}
}

// TestLogicalTreeWithinSpansGridLinks unit-tests the tree builder
// directly: the tree must use grid edges when label edges are missing.
func TestLogicalTreeWithinSpansGridLinks(t *testing.T) {
	tb := newTestbed(t, DefaultConfig())
	for _, v := range []vcgrid.VC{{CX: 1, CY: 0}, {CX: 0, CY: 1}, {CX: 3, CY: 1}, {CX: 1, CY: 3}} {
		tb.net.Node(tb.cm.CHOf(v)).Fail()
	}
	tb.cm.Elect()
	root := logicalid.CHID(tb.grid.Index(vcgrid.VC{CX: 2, CY: 2}))
	dest := logicalid.CHID(tb.grid.Index(vcgrid.VC{CX: 1, CY: 1}))
	tree := tb.mc.logicalTreeWithin(0, root, []logicalid.CHID{dest})
	if _, ok := tree[dest]; !ok {
		t.Fatalf("tree does not span the grid-linked destination: %v", tree)
	}
	// Walk to root for structural validity.
	cur := dest
	for steps := 0; cur != root; steps++ {
		if steps > 64 {
			t.Fatal("tree walk does not terminate")
		}
		parent, ok := tree[cur]
		if !ok {
			t.Fatalf("dangling tree node %d", cur)
		}
		cur = parent
	}
}
