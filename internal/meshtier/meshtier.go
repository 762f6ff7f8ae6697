// Package meshtier implements the mesh tier of the HVDB model: "a
// logical 2-dimensional mesh network by viewing each k-dimensional
// hypercube as one mesh node ... possibly an incomplete mesh" (§3).
// Mesh node IDs are the HIDs of package logicalid (row-major).
//
// Mesh is the incomplete mesh as a graph.Graph with 4-neighbour adjacency
// and the dimension-ordered (XY) preferred path; routing and multicast
// over it are package graph's, shared with the hypercube tier.
package meshtier

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/logicalid"
)

// ID is a mesh node identifier: a hypercube's row-major index.
type ID = logicalid.HID

// Mesh is a possibly incomplete 2-D mesh.
type Mesh struct {
	graph.Graph[ID, grid]
}

// grid is the mesh's shape: its columns and rows.
type grid struct{ cols, rows int }

func (s grid) coord(id ID) (x, y int) { return int(id) % s.cols, int(id) / s.cols }

func (s grid) at(x, y int) ID {
	if x < 0 || x >= s.cols || y < 0 || y >= s.rows {
		return -1
	}
	return ID(y*s.cols + x)
}

// Adjacent implements graph.Shape: the 4-neighbours inside the mesh, in
// the order W, E, S, N.
func (s grid) Adjacent(id ID, buf []ID) []ID {
	x, y := s.coord(id)
	for _, c := range [4][2]int{{x - 1, y}, {x + 1, y}, {x, y - 1}, {x, y + 1}} {
		if n := s.at(c[0], c[1]); n >= 0 {
			buf = append(buf, n)
		}
	}
	return buf
}

// Path implements graph.Shape: the XY path, x first, then y.
func (s grid) Path(src, dst ID, buf []ID) []ID {
	sx, sy := s.coord(src)
	dx, dy := s.coord(dst)
	buf = append(buf, src)
	for x := sx; x != dx; {
		if x < dx {
			x++
		} else {
			x--
		}
		buf = append(buf, s.at(x, sy))
	}
	for y := sy; y != dy; {
		if y < dy {
			y++
		} else {
			y--
		}
		buf = append(buf, s.at(dx, y))
	}
	return buf
}

// New returns an all-absent mesh of the given shape. It panics on
// non-positive dimensions — a configuration error.
func New(cols, rows int) *Mesh {
	if cols <= 0 || rows <= 0 {
		panic(fmt.Sprintf("meshtier: invalid shape %dx%d", cols, rows))
	}
	return &Mesh{graph.New[ID](cols*rows, grid{cols, rows})}
}

// Cols returns the number of columns.
func (m *Mesh) Cols() int { return m.Shape().cols }

// Rows returns the number of rows.
func (m *Mesh) Rows() int { return m.Shape().rows }

// At returns the ID at (x, y), or -1 outside the mesh.
func (m *Mesh) At(x, y int) ID { return m.Shape().at(x, y) }
