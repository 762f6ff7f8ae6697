package gps

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/xrand"
)

// StaticSource is a Source pinned at one point with zero velocity.
type StaticSource geom.Point

// TrueFix implements Source.
func (s StaticSource) TrueFix(float64) Fix {
	return Fix{Pos: geom.Point(s)}
}

func TestOracleReportsTruth(t *testing.T) {
	src := StaticSource(geom.Pt(10, 20))
	f := Oracle{}.Fix(src, 5)
	if f.Pos != geom.Pt(10, 20) || f.Vel != (geom.Vector{}) {
		t.Fatalf("oracle fix %+v", f)
	}
}

func TestNoisyZeroSigmaIsOracle(t *testing.T) {
	src := StaticSource(geom.Pt(1, 2))
	n := NewNoisy(0, 0, xrand.New(1))
	if f := n.Fix(src, 0); f.Pos != geom.Pt(1, 2) {
		t.Fatalf("zero-sigma noisy fix %+v", f)
	}
}

func TestNoisyErrorStatistics(t *testing.T) {
	src := StaticSource(geom.Pt(0, 0))
	n := NewNoisy(5, 0, xrand.New(2))
	const samples = 20000
	var sumX, sumX2 float64
	for i := 0; i < samples; i++ {
		f := n.Fix(src, 0)
		sumX += f.Pos.X
		sumX2 += f.Pos.X * f.Pos.X
	}
	mean := sumX / samples
	std := math.Sqrt(sumX2/samples - mean*mean)
	if math.Abs(mean) > 0.2 {
		t.Errorf("noise mean %v want ~0", mean)
	}
	if math.Abs(std-5) > 0.2 {
		t.Errorf("noise std %v want ~5", std)
	}
}

func TestNoisyVelocityError(t *testing.T) {
	src := StaticSource(geom.Pt(0, 0))
	n := NewNoisy(0, 1, xrand.New(3))
	diff := 0
	for i := 0; i < 100; i++ {
		if f := n.Fix(src, 0); f.Vel != (geom.Vector{}) {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("velocity noise never applied")
	}
}
