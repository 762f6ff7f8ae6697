package scenario

import (
	"testing"

	"repro/internal/des"
	"repro/internal/logicalid"
	"repro/internal/network"
)

// TestSystemInvariantsAcrossSeeds drives randomized worlds through a
// warm-up and checks the structural invariants of the model regardless
// of seed, mobility, or population:
//
//  1. every cluster head is CH-capable and up;
//  2. a node heads at most one VC;
//  3. the CH of a VC resides in that VC (by its own GPS fix);
//  4. logical neighbor relations are symmetric;
//  5. a hypercube's materialized cube matches the CH occupancy;
//  6. the mesh has a node exactly where a cube has members.
func TestSystemInvariantsAcrossSeeds(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		spec := DefaultSpec()
		spec.Seed = seed
		spec.Nodes = 60 + int(seed)*17
		spec.Mobility = []MobilityKind{Waypoint, Walk, GaussMarkov}[seed%3]
		spec.MaxSpeed = float64(2 + seed)
		w, err := Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		stk := startHVDB(t, w)
		w.Sim.RunUntil(8)
		stk.Stop()

		headsOf := map[network.NodeID]int{}
		for _, idx := range w.CM.HeadSlots() {
			vc := w.Grid.FromIndex(idx)
			ch := w.CM.CHOf(vc)
			n := w.Net.Node(ch)
			if n == nil || !n.Up() {
				t.Fatalf("seed %d: dead CH %d heads %v", seed, ch, vc)
			}
			if !n.CHCapable {
				t.Fatalf("seed %d: non-capable CH %d", seed, ch)
			}
			headsOf[ch]++
			if headsOf[ch] > 1 {
				t.Fatalf("seed %d: node %d heads multiple VCs", seed, ch)
			}
			if got := w.Grid.VCOf(n.Fix().Pos); got != vc {
				t.Fatalf("seed %d: CH %d of %v reports position in %v", seed, ch, vc, got)
			}
		}

		// Logical neighbor symmetry over occupied slots.
		for _, idx := range w.CM.HeadSlots() {
			slot := logicalid.CHID(idx)
			for _, nb := range w.BB.LogicalNeighbors(slot) {
				back := w.BB.LogicalNeighbors(nb)
				found := false
				for _, s := range back {
					if s == slot {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("seed %d: asymmetric logical link %d -> %d", seed, slot, nb)
				}
			}
		}

		// Cube occupancy and mesh presence consistency.
		mesh := w.BB.Mesh()
		for h := 0; h < w.Scheme.NumHypercubes(); h++ {
			cube := w.BB.Cube(logicalid.HID(h))
			occupied := 0
			for _, vc := range w.Scheme.BlockVCs(logicalid.HID(h)) {
				if w.CM.CHOf(vc) != network.NoNode {
					occupied++
					if !cube.Has(w.Scheme.PlaceOf(vc).HNID) {
						t.Fatalf("seed %d: cube %d missing occupied label", seed, h)
					}
				}
			}
			if cube.Count() != occupied {
				t.Fatalf("seed %d: cube %d count %d != occupied %d", seed, h, cube.Count(), occupied)
			}
			if mesh.Has(logicalid.HID(h)) != (occupied > 0) {
				t.Fatalf("seed %d: mesh presence of %d inconsistent", seed, h)
			}
		}
	}
}

// TestDeterministicEndToEnd replays an identical scenario twice and
// demands bit-identical delivery traces — the reproducibility guarantee
// every experiment relies on.
func TestDeterministicEndToEnd(t *testing.T) {
	run := func() []uint64 {
		spec := DefaultSpec()
		spec.Seed = 77
		spec.Nodes = 70
		spec.Groups = 1
		spec.MembersPerGroup = 8
		w, err := Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		stk := startHVDB(t, w)
		w.WarmUp(10)
		var traceLog []uint64
		stk.Deliveries(func(member network.NodeID, uid uint64, born des.Time, hops int) {
			traceLog = append(traceLog, uint64(member)<<32|uid&0xffffffff)
		})
		src := w.Ordinary[3]
		for i := 0; i < 5; i++ {
			stk.Send(src, 0, 200)
			w.Sim.RunUntil(w.Sim.Now() + 1)
		}
		w.Sim.RunUntil(w.Sim.Now() + 5)
		stk.Stop()
		return traceLog
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("delivery traces differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delivery traces diverge at %d", i)
		}
	}
}
