package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestAccumulatorBasics(t *testing.T) {
	var a Accumulator
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(x)
	}
	if a.n != 8 {
		t.Fatalf("N=%d", a.n)
	}
	if !almostEq(a.Mean(), 5, 1e-12) {
		t.Fatalf("Mean=%v want 5", a.Mean())
	}
	// Population variance is 4; sample variance is 32/7.
	if !almostEq(a.Var(), 32.0/7.0, 1e-12) {
		t.Fatalf("Var=%v want %v", a.Var(), 32.0/7.0)
	}
	if a.min != 2 || a.Max() != 9 {
		t.Fatalf("min/max %v %v", a.min, a.Max())
	}
}

func TestAccumulatorEmpty(t *testing.T) {
	var a Accumulator
	if a.Mean() != 0 || a.Var() != 0 || a.Std() != 0 {
		t.Fatal("empty accumulator should report zeros")
	}
}

func TestSamplePercentiles(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if got := s.Median(); !almostEq(got, 50.5, 1e-9) {
		t.Errorf("median %v want 50.5", got)
	}
	if got := s.Percentile(0); got != 1 {
		t.Errorf("p0 %v want 1", got)
	}
	if got := s.Percentile(100); got != 100 {
		t.Errorf("p100 %v want 100", got)
	}
	if got := s.Percentile(95); !almostEq(got, 95.05, 1e-9) {
		t.Errorf("p95 %v want 95.05", got)
	}
}

// TestSampleEmpty pins the package's empty-sample contract (see the
// package comment): zero-observation reductions are 0, never NaN.
func TestSampleEmpty(t *testing.T) {
	var s Sample
	if s.Percentile(50) != 0 || s.Mean() != 0 || s.Std() != 0 {
		t.Fatal("empty sample should report zeros")
	}
	if s.Median() != 0 || s.Percentile(0) != 0 || s.Percentile(95) != 0 || s.Percentile(100) != 0 {
		t.Fatal("empty percentiles should report zeros")
	}
	if s.N() != 0 {
		t.Fatal("empty sample has observations")
	}
	if mean, hw := MeanCI(nil); mean != 0 || hw != 0 {
		t.Fatalf("empty MeanCI (%v, %v) want zeros", mean, hw)
	}
	if mean, hw := MeanCI([]float64{3}); mean != 3 || hw != 0 {
		t.Fatalf("single-sample MeanCI (%v, %v) want (3, 0)", mean, hw)
	}
}

func TestSamplePercentileMonotoneProperty(t *testing.T) {
	f := func(xs []float64, p1, p2 uint8) bool {
		var s Sample
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				s.Add(x)
			}
		}
		a := float64(p1 % 101)
		b := float64(p2 % 101)
		if a > b {
			a, b = b, a
		}
		return s.Percentile(a) <= s.Percentile(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestJainIndex(t *testing.T) {
	if got := JainIndex([]float64{1, 1, 1, 1}); !almostEq(got, 1, 1e-12) {
		t.Errorf("even loads index %v want 1", got)
	}
	if got := JainIndex([]float64{4, 0, 0, 0}); !almostEq(got, 0.25, 1e-12) {
		t.Errorf("single hot spot index %v want 0.25", got)
	}
	if got := JainIndex(nil); got != 0 {
		t.Errorf("empty index %v want 0", got)
	}
	if got := JainIndex([]float64{0, 0}); got != 1 {
		t.Errorf("all-zero index %v want 1", got)
	}
}

func TestJainIndexBoundsProperty(t *testing.T) {
	f := func(xs []uint16) bool {
		if len(xs) == 0 {
			return true
		}
		loads := make([]float64, len(xs))
		for i, x := range xs {
			loads[i] = float64(x)
		}
		j := JainIndex(loads)
		return j >= 1.0/float64(len(xs))-1e-9 && j <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMeanCI(t *testing.T) {
	mean, hw := MeanCI([]float64{10, 10, 10, 10})
	if mean != 10 || hw != 0 {
		t.Fatalf("constant CI got %v±%v", mean, hw)
	}
	mean, hw = MeanCI([]float64{8, 12})
	if mean != 10 {
		t.Fatalf("mean %v want 10", mean)
	}
	// std = 2*sqrt(2)... actually std of {8,12} = sqrt(8) = 2.828; se = 2; t(1)=12.706
	if !almostEq(hw, 12.706*2.8284271247/math.Sqrt(2), 1e-3) {
		t.Fatalf("half width %v", hw)
	}
	if _, hw := MeanCI([]float64{1}); hw != 0 {
		t.Fatal("single sample should have zero half-width")
	}
}

func TestTCriticalMonotone(t *testing.T) {
	prev := math.Inf(1)
	for df := 1; df <= 40; df++ {
		v := tCritical95(df)
		if v > prev+1e-9 {
			t.Fatalf("t-critical not non-increasing at df=%d", df)
		}
		prev = v
	}
	if !math.IsNaN(tCritical95(0)) {
		t.Fatal("df=0 should be NaN")
	}
}
