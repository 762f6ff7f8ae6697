package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPointDist(t *testing.T) {
	cases := []struct {
		p, q Point
		d    float64
	}{
		{Pt(0, 0), Pt(3, 4), 5},
		{Pt(1, 1), Pt(1, 1), 0},
		{Pt(-1, -1), Pt(2, 3), 5},
		{Pt(0, 0), Pt(0, 7.5), 7.5},
	}
	for _, c := range cases {
		if got := c.p.Dist(c.q); !almostEq(got, c.d) {
			t.Errorf("Dist(%v,%v)=%v want %v", c.p, c.q, got, c.d)
		}
		if got := c.p.Dist2(c.q); !almostEq(got, c.d*c.d) {
			t.Errorf("Dist2(%v,%v)=%v want %v", c.p, c.q, got, c.d*c.d)
		}
	}
}

func TestDistSymmetryProperty(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		a, b := Pt(ax, ay), Pt(bx, by)
		d1, d2 := a.Dist(b), b.Dist(a)
		return d1 == d2 || almostEq(d1, d2) // == handles +Inf for extreme inputs
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTriangleInequalityProperty(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy int16) bool {
		a := Pt(float64(ax), float64(ay))
		b := Pt(float64(bx), float64(by))
		c := Pt(float64(cx), float64(cy))
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVectorOps(t *testing.T) {
	v := Vec(3, 4)
	if !almostEq(v.Len(), 5) {
		t.Errorf("Len=%v want 5", v.Len())
	}
	u := v.Unit()
	if !almostEq(u.Len(), 1) {
		t.Errorf("Unit().Len()=%v want 1", u.Len())
	}
	if got := Vec(0, 0).Unit(); got != (Vector{}) {
		t.Errorf("zero Unit=%v want zero", got)
	}
	if got := v.Scale(2); !almostEq(got.Len(), 10) {
		t.Errorf("Scale(2).Len()=%v want 10", got.Len())
	}
	if got := v.Dot(Vec(4, -3)); !almostEq(got, 0) {
		t.Errorf("perpendicular Dot=%v want 0", got)
	}
}

func TestFromPolarRoundTrip(t *testing.T) {
	f := func(l uint8, a float64) bool {
		length := float64(l) + 0.5
		angle := math.Mod(a, math.Pi) // keep away from branch cut
		v := FromPolar(length, angle)
		return almostEq(v.Len(), length)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPointAddSub(t *testing.T) {
	p := Pt(1, 2)
	q := p.Add(Vec(3, -1))
	if q != Pt(4, 1) {
		t.Fatalf("Add got %v", q)
	}
	if d := q.Sub(p); d != Vec(3, -1) {
		t.Fatalf("Sub got %v", d)
	}
}

func TestCircleContains(t *testing.T) {
	c := Circle{C: Pt(0, 0), R: 10}
	if !c.Contains(Pt(0, 10)) {
		t.Error("boundary point should be contained")
	}
	if !c.Contains(Pt(7, 7)) {
		t.Error("interior point should be contained")
	}
	if c.Contains(Pt(8, 8)) {
		t.Error("exterior point should not be contained")
	}
}

func TestRectBasics(t *testing.T) {
	r := RectWH(0, 0, 100, 50)
	if r.W() != 100 || r.H() != 50 {
		t.Fatalf("W/H got %v %v", r.W(), r.H())
	}
	if r.Center() != Pt(50, 25) {
		t.Fatalf("Center got %v", r.Center())
	}
	if got := r.Clamp(Pt(-5, 60)); got != Pt(0, 50) {
		t.Errorf("Clamp got %v", got)
	}
}

func TestVectorAngle(t *testing.T) {
	if a := Vec(1, 0).Angle(); !almostEq(a, 0) {
		t.Errorf("angle of +x = %v", a)
	}
	if a := Vec(0, 1).Angle(); !almostEq(a, math.Pi/2) {
		t.Errorf("angle of +y = %v", a)
	}
}
