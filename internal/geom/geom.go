// Package geom provides the 2-D geometric primitives used throughout the
// simulator: points, vectors, circles, and rectangles. All coordinates are
// in meters in a flat Euclidean plane, which matches the paper's model of
// a geographical area divided into equal circular regions.
package geom

import (
	"fmt"
	"math"
)

// Point is a location in the plane, in meters.
type Point struct {
	X, Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// Add returns p translated by the vector v.
func (p Point) Add(v Vector) Point { return Point{p.X + v.DX, p.Y + v.DY} }

// Sub returns the vector from q to p.
func (p Point) Sub(q Point) Vector { return Vector{p.X - q.X, p.Y - q.Y} }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Dist2 returns the squared Euclidean distance between p and q. It avoids
// the square root and is the preferred comparison form on hot paths such
// as neighbor discovery.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.1f,%.1f)", p.X, p.Y) }

// Vector is a displacement in the plane, in meters.
type Vector struct {
	DX, DY float64
}

// Vec is shorthand for Vector{dx, dy}.
func Vec(dx, dy float64) Vector { return Vector{DX: dx, DY: dy} }

// Scale returns v scaled by s.
func (v Vector) Scale(s float64) Vector { return Vector{v.DX * s, v.DY * s} }

// Len returns the Euclidean length of v.
func (v Vector) Len() float64 { return math.Hypot(v.DX, v.DY) }

// Dot returns the dot product of v and w.
func (v Vector) Dot(w Vector) float64 { return v.DX*w.DX + v.DY*w.DY }

// Unit returns the unit vector in the direction of v. The zero vector is
// returned unchanged.
func (v Vector) Unit() Vector {
	l := v.Len()
	if l == 0 {
		return Vector{}
	}
	return Vector{v.DX / l, v.DY / l}
}

// Angle returns the direction of v in radians in (-pi, pi].
func (v Vector) Angle() float64 { return math.Atan2(v.DY, v.DX) }

// FromPolar returns the vector with the given length and direction
// (radians).
func FromPolar(length, angle float64) Vector {
	return Vector{length * math.Cos(angle), length * math.Sin(angle)}
}

// Circle is a disc with center C and radius R, used both for radio ranges
// and for the paper's Virtual Circles.
type Circle struct {
	C Point
	R float64
}

// Contains reports whether p is inside or on the circle.
func (c Circle) Contains(p Point) bool {
	return c.C.Dist2(p) <= c.R*c.R
}

// Rect is an axis-aligned rectangle [Min, Max).
type Rect struct {
	Min, Max Point
}

// RectWH returns the rectangle with origin (x, y) and the given width and
// height.
func RectWH(x, y, w, h float64) Rect {
	return Rect{Min: Pt(x, y), Max: Pt(x+w, y+h)}
}

// W returns the rectangle's width.
func (r Rect) W() float64 { return r.Max.X - r.Min.X }

// H returns the rectangle's height.
func (r Rect) H() float64 { return r.Max.Y - r.Min.Y }

// Center returns the rectangle's center point.
func (r Rect) Center() Point {
	return Pt((r.Min.X+r.Max.X)/2, (r.Min.Y+r.Max.Y)/2)
}

// Clamp returns p constrained to lie within r (inclusive of both edges).
func (r Rect) Clamp(p Point) Point {
	return Pt(clamp(p.X, r.Min.X, r.Max.X), clamp(p.Y, r.Min.Y, r.Max.Y))
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
