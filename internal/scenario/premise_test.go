package scenario

import (
	"math"
	"testing"

	"repro/internal/georoute"
	"repro/internal/membership"
	"repro/internal/radio"
)

// The tests in this file hold the rows of DESIGN.md's "Model premises"
// table: what the protocol layers assume of a world that Build wires.

// TestOneHopClustersByConstruction: local delivery is one CH broadcast,
// so in every built world the CH radio must cover its whole VC, at any
// cell size, with the MN radio scaled alongside; cells the default CH
// disc already covers keep both defaults bit-exactly.
func TestOneHopClustersByConstruction(t *testing.T) {
	for _, cell := range []float64{250, 495, 560, 790, 2500} {
		spec := DefaultSpec()
		spec.CellSize = cell
		spec.ArenaSize = 8 * cell
		spec.Nodes = 4
		w, err := Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		ch := w.Net.Node(w.Anchors[0]).Radio.Range
		mn := w.Net.Node(w.Ordinary[0]).Radio.Range
		if ch < w.Grid.Radius() {
			t.Errorf("cell %g m: CH range %g m does not cover the VC radius %g m", cell, ch, w.Grid.Radius())
		}
		if want := radio.DefaultMN.Range / radio.DefaultCH.Range; math.Abs(mn/ch-want) > 1e-12 {
			t.Errorf("cell %g m: MN/CH range ratio %v, want %v", cell, mn/ch, want)
		}
		if cell == 250 && (ch != radio.DefaultCH.Range || mn != radio.DefaultMN.Range) {
			t.Errorf("cell 250 m: radios %g/%g m, want the defaults untouched", ch, mn)
		}
	}
}

// TestWideCellWorldDelivers is the regression the 100k scale row
// lacked: the 8x8-VC, 790 m-cell world at the sweep's density delivered
// 62% while Build wired 350 m CH radios into 559 m-radius VCs — the
// share of a cell one CH disc covers — and must deliver now that the
// premise above holds.
func TestWideCellWorldDelivers(t *testing.T) {
	spec := DefaultSpec()
	spec.CellSize = 790
	spec.ArenaSize = 8 * 790
	spec.Nodes = 2037
	spec.MembersPerGroup = 20
	w, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	stk, err := w.Protocol("hvdb")
	if err != nil {
		t.Fatal(err)
	}
	stk.Start()
	w.WarmUp(15)
	m := w.Meter(stk, 5)
	src := w.RandomSource()
	w.CBR(func() uint64 { return m.Send(src, 0, 512) }, 0.5, 10)
	w.RunUntil(w.Sim.Now() + 10)
	stk.Stop()
	got := m.Close()
	if got.Expected == 0 || got.PDR() < 0.95 {
		t.Fatalf("790 m-cell world delivered %d of %d (%.1f%%), want >= 95%%", got.Delivered, got.Expected, 100*got.PDR())
	}
}

// TestMembershipCadence pins the refresh periods the documents quote
// (and c6's table note renders from the same config).
func TestMembershipCadence(t *testing.T) {
	cfg := membership.DefaultConfig()
	if cfg.LocalPeriod != 1 || cfg.MNTPeriod != 2 || cfg.HTPeriod != 8 || cfg.LocalTTL != 2.5 {
		t.Fatalf("membership periods local/MNT/HT = %v/%v/%v s, local TTL %v s; DESIGN.md \"Model premises\" says 1/2/8 and 2.5",
			cfg.LocalPeriod, cfg.MNTPeriod, cfg.HTPeriod, cfg.LocalTTL)
	}
}

// TestGeoLegFitsTTL: the hvdb arm never geo-routes end to end. Its
// longest single leg is multicast.forwardToCube's — from any CH slot of
// one hypercube block to the nearest occupied slot of a mesh-adjacent
// block, at most 2*side-1 cells along the crossing axis and side-1
// across it, plus a VC radius at each end for CHs off their centres.
// With radios scaled to the cell the leg's hop count depends on the
// dimension alone, and at twice the ideal count (greedy progress of
// half a range per hop) it must fit georoute.DefaultTTL for every
// dimension a recorded table uses.
func TestGeoLegFitsTTL(t *testing.T) {
	for _, dim := range []int{2, 4, 6} {
		for _, cell := range []float64{250, 790, 2500} {
			spec := DefaultSpec()
			spec.Dim = dim
			spec.CellSize = cell
			spec.ArenaSize = 16 * cell
			spec.Nodes = 1
			w, err := Build(spec)
			if err != nil {
				t.Fatal(err)
			}
			bw, bh := w.Scheme.BlockSize()
			side := float64(max(bw, bh))
			leg := math.Hypot(2*side-1, side-1)*cell + 2*w.Grid.Radius()
			hops := leg / w.Net.Node(w.Ordinary[0]).Radio.Range
			if 2*hops > georoute.DefaultTTL {
				t.Errorf("dim %d, cell %g m: longest geo leg %.0f m is %.1f ideal hops; twice that exceeds the TTL of %d",
					dim, cell, leg, hops, georoute.DefaultTTL)
			}
		}
	}
}
