package stats

import (
	"math"
	"testing"

	"repro/internal/xrand"
)

// TestLogHistEmptyContract pins the package's empty-sample contract
// for the streaming histogram: every reduction of an empty LogHist is
// 0, never NaN or a panic.
func TestLogHistEmptyContract(t *testing.T) {
	var h LogHist
	for name, got := range map[string]float64{
		"Mean":            h.Mean(),
		"sum":             h.sum,
		"min":             h.min,
		"max":             h.max,
		"Percentile(0)":   h.Percentile(0),
		"Percentile(50)":  h.Percentile(50),
		"Percentile(95)":  h.Percentile(95),
		"Percentile(100)": h.Percentile(100),
	} {
		if got != 0 {
			t.Errorf("empty LogHist %s = %g, want 0", name, got)
		}
	}
	if h.N() != 0 {
		t.Errorf("empty LogHist N = %d", h.N())
	}
}

// TestLogHistBucketBounds checks that every observation lands in a bin
// whose bounds contain it and whose relative width is at most
// 1/logHistSub — the invariant the percentile error bound rests on.
func TestLogHistBucketBounds(t *testing.T) {
	rng := xrand.New(3)
	for i := 0; i < 20000; i++ {
		// Log-uniform across the full covered range.
		x := math.Ldexp(rng.Range(0.5, 1), int(rng.Range(logHistMinExp, logHistMaxExp+1)))
		b := logHistBucket(x)
		if b <= 0 || b >= logHistBins {
			t.Fatalf("x=%g: bucket %d out of the in-range bins", x, b)
		}
		lo, hi := logHistBounds(b)
		if x < lo || x >= hi {
			t.Fatalf("x=%g outside its bucket [%g, %g)", x, lo, hi)
		}
		if rel := (hi - lo) / lo; rel > 1.0/logHistSub+1e-12 {
			t.Fatalf("bucket %d relative width %g exceeds 1/%d", b, rel, logHistSub)
		}
	}
	// Underflow and clamp edges.
	for _, x := range []float64{0, -1, math.Ldexp(1, logHistMinExp-5), math.NaN()} {
		if b := logHistBucket(x); b != 0 {
			t.Errorf("logHistBucket(%g) = %d, want underflow bin 0", x, b)
		}
	}
	if b := logHistBucket(math.Ldexp(1, logHistMaxExp+3)); b != logHistBins-1 {
		t.Errorf("overflow did not clamp into the top bin: got %d", b)
	}
}

// TestLogHistMeanExact verifies Mean matches Sample.Mean bit-for-bit:
// both fold the observations into one float64 sum in Add order.
func TestLogHistMeanExact(t *testing.T) {
	rng := xrand.New(7)
	var h LogHist
	var s Sample
	for i := 0; i < 5000; i++ {
		x := rng.ExpFloat64() * 0.012
		h.Add(x)
		s.Add(x)
	}
	if h.Mean() != s.Mean() {
		t.Errorf("LogHist.Mean = %v, Sample.Mean = %v: exact-mean contract broken", h.Mean(), s.Mean())
	}
	if h.N() != s.N() {
		t.Errorf("N mismatch: %d vs %d", h.N(), s.N())
	}
}

// TestLogHistPercentileErrorBound pins the histogram percentile
// against the exact Sample percentile on known distributions: the
// relative error must stay within one bucket width (1/logHistSub).
func TestLogHistPercentileErrorBound(t *testing.T) {
	const tol = 1.0/logHistSub + 1e-9
	gens := map[string]func(*xrand.Rand) float64{
		// Delay-like: exponential around 12 ms.
		"exponential": func(r *xrand.Rand) float64 { return r.ExpFloat64() * 0.012 },
		// Uniform window.
		"uniform": func(r *xrand.Rand) float64 { return r.Range(0.001, 0.2) },
		// Heavy-tailed: lognormal.
		"lognormal": func(r *xrand.Rand) float64 { return math.Exp(r.NormFloat64()*1.5 - 4) },
		// Hop-count-like small integers.
		"hops": func(r *xrand.Rand) float64 { return float64(1 + r.Intn(12)) },
	}
	for name, gen := range gens {
		rng := xrand.New(41)
		var h LogHist
		var s Sample
		for i := 0; i < 20000; i++ {
			x := gen(rng)
			h.Add(x)
			s.Add(x)
		}
		for _, p := range []float64{1, 10, 25, 50, 75, 90, 95, 99} {
			exact := s.Percentile(p)
			got := h.Percentile(p)
			if exact <= 0 {
				t.Fatalf("%s p%g: exact percentile %g not positive; bad test distribution", name, p, exact)
			}
			if rel := math.Abs(got-exact) / exact; rel > tol {
				t.Errorf("%s p%g: hist %g vs exact %g, relative error %g > %g", name, p, got, exact, rel, tol)
			}
		}
		// The extremes are exact.
		if h.Percentile(0) != s.Percentile(0) || h.Percentile(100) != s.Percentile(100) {
			t.Errorf("%s: extremes not exact: [%g, %g] vs [%g, %g]",
				name, h.Percentile(0), h.Percentile(100), s.Percentile(0), s.Percentile(100))
		}
	}
	// Constant distributions answer exactly at every p.
	var c LogHist
	for i := 0; i < 100; i++ {
		c.Add(0.25)
	}
	for _, p := range []float64{0, 17, 50, 95, 100} {
		if got := c.Percentile(p); got != 0.25 {
			t.Errorf("constant distribution p%g = %g, want 0.25 exactly", p, got)
		}
	}
}

// TestLogHistDeterministicAndMergeOrderInsensitive: the same
// observations fingerprint identically on every run, and a histogram
// fed two parts one after the other is independent of which part comes
// first (integer-valued observations keep the float sum exact, so even
// the sum agrees).
func TestLogHistDeterministicAndMergeOrderInsensitive(t *testing.T) {
	mk := func() (whole LogHist, a, b []float64) {
		rng := xrand.New(99)
		for i := 0; i < 4096; i++ {
			x := float64(rng.Intn(1 << 16))
			whole.Add(x)
			if i%2 == 0 {
				a = append(a, x)
			} else {
				b = append(b, x)
			}
		}
		return whole, a, b
	}
	w1, a1, b1 := mk()
	w2, a2, b2 := mk()
	if w1.Fingerprint() != w2.Fingerprint() {
		t.Fatal("identical observation streams fingerprint differently")
	}
	var ab, ba LogHist
	for _, part := range [][]float64{a1, b1} {
		for _, x := range part {
			ab.Add(x)
		}
	}
	for _, part := range [][]float64{b2, a2} {
		for _, x := range part {
			ba.Add(x)
		}
	}
	if ab.Fingerprint() != ba.Fingerprint() {
		t.Fatal("part order changed the histogram")
	}
	if ab.N() != w1.N() || ab.Percentile(95) != w1.Percentile(95) {
		t.Fatal("histogram of the parts disagrees with the interleaved one")
	}
}
