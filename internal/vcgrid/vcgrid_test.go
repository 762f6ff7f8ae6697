package vcgrid

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

func grid8x8() *Grid {
	// The paper's Figure 2 example: an 8*8 VC MANET. 250 m cells.
	return New(geom.RectWH(0, 0, 2000, 2000), 250)
}

func TestDimensions(t *testing.T) {
	g := grid8x8()
	if g.Cols() != 8 || g.Rows() != 8 || g.Count() != 64 {
		t.Fatalf("grid %dx%d count %d want 8x8/64", g.Cols(), g.Rows(), g.Count())
	}
	if g.cellSize != 250 {
		t.Fatalf("cell size %v", g.cellSize)
	}
	if r := g.Radius(); math.Abs(r-250/math.Sqrt2) > 1e-6 {
		t.Fatalf("radius %v", r)
	}
}

func TestRoundsUpPartialCells(t *testing.T) {
	g := New(geom.RectWH(0, 0, 1100, 900), 250)
	if g.Cols() != 5 || g.Rows() != 4 {
		t.Fatalf("grid %dx%d want 5x4", g.Cols(), g.Rows())
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	for _, fn := range []func(){
		func() { New(geom.RectWH(0, 0, 100, 100), 0) },
		func() { New(geom.RectWH(0, 0, 0, 100), 10) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("want panic")
				}
			}()
			fn()
		}()
	}
}

func TestVCOf(t *testing.T) {
	g := grid8x8()
	cases := []struct {
		p  geom.Point
		vc VC
	}{
		{geom.Pt(0, 0), VC{0, 0}},
		{geom.Pt(249.9, 249.9), VC{0, 0}},
		{geom.Pt(250, 0), VC{1, 0}},
		{geom.Pt(1999, 1999), VC{7, 7}},
		{geom.Pt(-50, 500), VC{0, 2}},   // clamped west
		{geom.Pt(5000, 5000), VC{7, 7}}, // clamped northeast
	}
	for _, c := range cases {
		if got := g.VCOf(c.p); got != c.vc {
			t.Errorf("VCOf(%v)=%v want %v", c.p, got, c.vc)
		}
	}
}

func TestCenterIsVCC(t *testing.T) {
	g := grid8x8()
	if got := g.Center(VC{0, 0}); got != geom.Pt(125, 125) {
		t.Fatalf("VCC of (0,0) = %v", got)
	}
	if got := g.Center(VC{7, 7}); got != geom.Pt(1875, 1875) {
		t.Fatalf("VCC of (7,7) = %v", got)
	}
}

func TestCircleCoversTile(t *testing.T) {
	// Every point of a tile must be inside its own VC (full coverage),
	// which is why the radius is the circumradius.
	g := grid8x8()
	v := VC{3, 4}
	c := g.Circle(v)
	min := geom.Pt(float64(v.CX)*250, float64(v.CY)*250) // the tile's corner
	for _, p := range []geom.Point{
		min, geom.Pt(min.X+250-1e-9, min.Y),
		geom.Pt(min.X, min.Y+250-1e-9), c.C,
	} {
		if !c.Contains(p) {
			t.Fatalf("tile point %v outside its VC", p)
		}
	}
}

func TestCoveringOverlap(t *testing.T) {
	g := grid8x8()
	// The exact center of a tile belongs only to its own VC.
	if got := g.Covering(geom.Pt(125, 125)); len(got) != 1 {
		t.Fatalf("tile center covered by %d VCs want 1: %v", len(got), got)
	}
	// A point on the shared edge of two tiles is inside both circles —
	// the paper's overlapped-region membership.
	got := g.Covering(geom.Pt(250, 125))
	if len(got) < 2 {
		t.Fatalf("edge point covered by %d VCs want >=2: %v", len(got), got)
	}
	// A tile corner lies within up to four circles.
	got = g.Covering(geom.Pt(250, 250))
	if len(got) != 4 {
		t.Fatalf("corner point covered by %d VCs want 4: %v", len(got), got)
	}
}

func TestCoveringAlwaysIncludesHome(t *testing.T) {
	g := grid8x8()
	f := func(x, y uint16) bool {
		p := geom.Pt(float64(x%2200)-100, float64(y%2200)-100)
		home := g.VCOf(p)
		for _, v := range g.Covering(p) {
			if v == home {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAdjacent(t *testing.T) {
	g := grid8x8()
	if got := g.Adjacent(VC{0, 0}); len(got) != 2 {
		t.Fatalf("corner adjacency %v", got)
	}
	if got := g.Adjacent(VC{3, 0}); len(got) != 3 {
		t.Fatalf("edge adjacency %v", got)
	}
	if got := g.Adjacent(VC{3, 3}); len(got) != 4 {
		t.Fatalf("interior adjacency %v", got)
	}
}

func TestIndexRoundTrip(t *testing.T) {
	g := grid8x8()
	for i := 0; i < g.Count(); i++ {
		v := g.FromIndex(i)
		if !g.Valid(v) {
			t.Fatalf("FromIndex(%d)=%v invalid", i, v)
		}
		if g.Index(v) != i {
			t.Fatalf("round trip %d -> %v -> %d", i, v, g.Index(v))
		}
	}
}

func TestFromIndexPanics(t *testing.T) {
	g := grid8x8()
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	g.FromIndex(64)
}

func TestDistVCs(t *testing.T) {
	if DistVCs(VC{0, 0}, VC{3, 1}) != 3 {
		t.Fatal("chebyshev wrong")
	}
	if DistVCs(VC{5, 5}, VC{5, 5}) != 0 {
		t.Fatal("self distance")
	}
	if DistVCs(VC{2, 7}, VC{4, 3}) != 4 {
		t.Fatal("chebyshev wrong")
	}
}

func TestValid(t *testing.T) {
	g := grid8x8()
	for _, c := range []struct {
		v  VC
		ok bool
	}{
		{VC{0, 0}, true}, {VC{7, 7}, true},
		{VC{-1, 0}, false}, {VC{8, 0}, false}, {VC{0, 8}, false},
	} {
		if g.Valid(c.v) != c.ok {
			t.Errorf("Valid(%v)=%v want %v", c.v, !c.ok, c.ok)
		}
	}
}
