// Package vcgrid implements the paper's Virtual Circle (VC) layout: the
// geographical area is "divided into equal regions of circular shape"
// (§3), one potential cluster per region, with circles overlapping so
// that border nodes can belong to several clusters at once "for more
// reliable communications".
//
// Concretely the arena is tiled by square cells of side CellSize; each
// cell carries a VC centered at the cell center (the Virtual Circle
// Center, VCC) whose radius is the cell's circumradius CellSize/sqrt(2).
// Adjacent circles then overlap exactly in the lens over the shared cell
// border, which reproduces the geometry of the paper's Figure 2.
package vcgrid

import (
	"fmt"
	"math"

	"repro/internal/geom"
)

// VC identifies one virtual circle by its cell coordinates: CX counts
// columns (west to east), CY rows (south to north).
type VC struct {
	CX, CY int
}

// String implements fmt.Stringer.
func (v VC) String() string { return fmt.Sprintf("vc(%d,%d)", v.CX, v.CY) }

// Grid is the virtual-circle layout over an arena.
type Grid struct {
	arena    geom.Rect
	cellSize float64
	cols     int
	rows     int
}

// New lays out a grid of square cells of side cellSize over the arena.
// The arena dimensions are rounded up to whole cells (the paper divides
// "a geographical area (or even the whole earth)", so partial edge
// coverage is a non-issue; we simply extend). It panics on non-positive
// cellSize or an empty arena — configuration errors.
func New(arena geom.Rect, cellSize float64) *Grid {
	if cellSize <= 0 || arena.W() <= 0 || arena.H() <= 0 {
		panic("vcgrid: invalid arena or cell size")
	}
	return &Grid{
		arena:    arena,
		cellSize: cellSize,
		cols:     int(math.Ceil(arena.W() / cellSize)),
		rows:     int(math.Ceil(arena.H() / cellSize)),
	}
}

// Cols returns the number of VC columns.
func (g *Grid) Cols() int { return g.cols }

// Rows returns the number of VC rows.
func (g *Grid) Rows() int { return g.rows }

// Count returns the total number of VCs.
func (g *Grid) Count() int { return g.cols * g.rows }

// Radius returns the VC radius (the circumradius of a tile), the
// paper's "diameter of VCs" divided by two. A relative epsilon of slack
// absorbs floating-point rounding so that tile corners — which lie at
// exactly the circumradius — always test as covered.
func (g *Grid) Radius() float64 { return g.cellSize / math.Sqrt2 * (1 + 1e-9) }

// Valid reports whether the VC coordinates are inside the grid.
func (g *Grid) Valid(v VC) bool {
	return v.CX >= 0 && v.CX < g.cols && v.CY >= 0 && v.CY < g.rows
}

// VCOf returns the VC whose square tile contains p. Points outside the
// arena clamp to the nearest edge cell, so every position maps to some
// VC ("each MN can determine the circle where it resides").
func (g *Grid) VCOf(p geom.Point) VC {
	cx := int(math.Floor((p.X - g.arena.Min.X) / g.cellSize))
	cy := int(math.Floor((p.Y - g.arena.Min.Y) / g.cellSize))
	if cx < 0 {
		cx = 0
	}
	if cx >= g.cols {
		cx = g.cols - 1
	}
	if cy < 0 {
		cy = 0
	}
	if cy >= g.rows {
		cy = g.rows - 1
	}
	return VC{cx, cy}
}

// Center returns the VCC (virtual circle center) of v.
func (g *Grid) Center(v VC) geom.Point {
	return geom.Pt(
		g.arena.Min.X+(float64(v.CX)+0.5)*g.cellSize,
		g.arena.Min.Y+(float64(v.CY)+0.5)*g.cellSize,
	)
}

// Circle returns the virtual circle of v.
func (g *Grid) Circle(v VC) geom.Circle {
	return geom.Circle{C: g.Center(v), R: g.Radius()}
}

// Covering returns every VC whose circle contains p — the overlap
// membership set of the paper ("an MN within the overlapped regions can
// be a cluster member of two or multiple clusters at the same time").
// The home tile's VC is always included even for clamped out-of-arena
// points.
func (g *Grid) Covering(p geom.Point) []VC {
	home := g.VCOf(p)
	out := []VC{home}
	for dx := -1; dx <= 1; dx++ {
		for dy := -1; dy <= 1; dy++ {
			if dx == 0 && dy == 0 {
				continue
			}
			v := VC{home.CX + dx, home.CY + dy}
			if g.Valid(v) && g.Circle(v).Contains(p) {
				out = append(out, v)
			}
		}
	}
	return out
}

// Adjacent returns the 4-neighborhood of v within the grid (the VCs
// whose tiles share an edge with v's tile).
func (g *Grid) Adjacent(v VC) []VC {
	cands := [4]VC{
		{v.CX - 1, v.CY}, {v.CX + 1, v.CY}, {v.CX, v.CY - 1}, {v.CX, v.CY + 1},
	}
	out := make([]VC, 0, 4)
	for _, c := range cands {
		if g.Valid(c) {
			out = append(out, c)
		}
	}
	return out
}

// Index linearizes v to a unique integer in [0, Count()); it is the
// CHID space of the logical identifier scheme.
func (g *Grid) Index(v VC) int { return v.CY*g.cols + v.CX }

// FromIndex inverts Index. Out-of-range indices panic — they are always
// programming errors.
func (g *Grid) FromIndex(i int) VC {
	if i < 0 || i >= g.Count() {
		panic(fmt.Sprintf("vcgrid: index %d out of range [0,%d)", i, g.Count()))
	}
	return VC{CX: i % g.cols, CY: i / g.cols}
}

// DistVCs returns the Chebyshev distance between two VCs in cells, a
// cheap lower bound on hop distance used by experiments.
func DistVCs(a, b VC) int {
	dx, dy := a.CX-b.CX, a.CY-b.CY
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	if dx > dy {
		return dx
	}
	return dy
}
