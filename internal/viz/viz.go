// Package viz renders ASCII views of a running HVDB world: the VC grid
// with cluster-head occupancy and roles (the paper's Figure 2 as a live
// snapshot), one hypercube's label layout with presence (Figure 3), and
// the mesh tier. The renderings are used by cmd/hvdbmap and by examples
// for human-readable snapshots; they are deliberately plain text so they
// diff well in tests.
package viz

import (
	"fmt"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/logicalid"
	"repro/internal/network"
	"repro/internal/vcgrid"
)

// GridView renders the VC grid, one cell per VC, rows printed north to
// south:
//
//	B  border CH present (BCH)
//	i  inner CH present (ICH)
//	.  no cluster head (incomplete slot)
//
// Block borders between hypercubes are drawn with | and -.
func GridView(bb *core.Backbone) string {
	scheme := bb.Scheme()
	grid := scheme.Grid()
	blockW, blockH := scheme.BlockSize()
	var b strings.Builder
	for cy := grid.Rows() - 1; cy >= 0; cy-- {
		if (cy+1)%blockH == 0 && cy != grid.Rows()-1 {
			// Horizontal separator between block rows.
			for cx := 0; cx < grid.Cols(); cx++ {
				if cx > 0 && cx%blockW == 0 {
					b.WriteString("+-")
				} else if cx > 0 {
					b.WriteString("--")
				}
				b.WriteString("-")
			}
			b.WriteByte('\n')
		}
		for cx := 0; cx < grid.Cols(); cx++ {
			if cx > 0 {
				if cx%blockW == 0 {
					b.WriteString("| ")
				} else {
					b.WriteString("  ")
				}
			}
			vc := vcgrid.VC{CX: cx, CY: cy}
			slot := logicalid.CHID(grid.Index(vc))
			switch {
			case bb.CHNodeOf(slot) == network.NoNode:
				b.WriteByte('.')
			case scheme.IsBorder(vc):
				b.WriteByte('B')
			default:
				b.WriteByte('i')
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CubeView renders one hypercube's label layout with presence: present
// labels print as their bit strings, absent slots as dashes — Figure 3
// with live occupancy.
func CubeView(bb *core.Backbone, h logicalid.HID) string {
	scheme := bb.Scheme()
	grid := scheme.Grid()
	blockW, blockH := scheme.BlockSize()
	mx, my := scheme.MeshCoord(h)
	var b strings.Builder
	fmt.Fprintf(&b, "hypercube %d (mesh %d,%d), dim %d:\n", h, mx, my, scheme.Dim())
	for by := blockH - 1; by >= 0; by-- {
		for bx := 0; bx < blockW; bx++ {
			if bx > 0 {
				b.WriteByte(' ')
			}
			vc := vcgrid.VC{CX: mx*blockW + bx, CY: my*blockH + by}
			if !grid.Valid(vc) {
				b.WriteString(strings.Repeat("x", scheme.Dim()))
				continue
			}
			place := scheme.PlaceOf(vc)
			if bb.CHNodeOf(place.CHID) == network.NoNode {
				b.WriteString(strings.Repeat("-", scheme.Dim()))
			} else {
				b.WriteString(place.HNID.Bits(scheme.Dim()))
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// MeshView renders the mesh tier: # for actual mesh nodes (hypercubes
// with at least one CH), . for empty blocks.
func MeshView(bb *core.Backbone) string {
	mesh := bb.Mesh()
	var b strings.Builder
	for y := mesh.Rows() - 1; y >= 0; y-- {
		for x := 0; x < mesh.Cols(); x++ {
			if x > 0 {
				b.WriteByte(' ')
			}
			if mesh.Has(mesh.At(x, y)) {
				b.WriteByte('#')
			} else {
				b.WriteByte('.')
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Summary renders a one-paragraph textual snapshot of the backbone.
func Summary(bb *core.Backbone, cm *cluster.Manager) string {
	scheme := bb.Scheme()
	heads := cm.HeadSlots()
	bch, ich := 0, 0
	for _, idx := range heads {
		if scheme.IsBorder(scheme.Grid().FromIndex(idx)) {
			bch++
		} else {
			ich++
		}
	}
	complete := 0
	for h := 0; h < scheme.NumHypercubes(); h++ {
		c := bb.Cube(logicalid.HID(h))
		if c.Count() == c.Size() {
			complete++
		}
	}
	mesh := bb.Mesh()
	return fmt.Sprintf(
		"backbone: %d/%d VCs headed (%d BCH, %d ICH); %d/%d hypercubes complete; mesh %d/%d nodes, connected=%v",
		len(heads), scheme.Grid().Count(), bch, ich,
		complete, scheme.NumHypercubes(),
		mesh.Count(), mesh.Size(), mesh.Connected(),
	)
}
