package stats

import "math"

// LogHist is a deterministic log-spaced histogram: the streaming
// replacement for Sample on hot per-delivery paths, where retaining one
// float64 per observation is O(packets) memory the mega-scale worlds
// cannot afford. It keeps an exact count, sum (so Mean is exact, in the
// observation order's float sum like Sample's), and min/max, plus a
// fixed array of logHistSub linear sub-buckets per power-of-two octave;
// Percentile answers from the buckets with a bounded relative error
// (see Percentile) instead of exactly.
//
// Determinism: bucketing uses only exact float operations
// (math.Frexp, scaling by powers of two, truncation) — no logarithms —
// so the same observations produce the same bins on every platform.
// The zero value is ready to use, and an empty histogram follows the
// package's empty-sample contract: Mean, Percentile, Min, and Max all
// report 0.
type LogHist struct {
	count    uint64
	sum      float64
	min, max float64
	bins     [logHistBins]uint64
}

// Histogram geometry. math.Frexp decomposes x = frac * 2^exp with
// frac in [0.5, 1); octaves logHistMinExp..logHistMaxExp are covered,
// each split into logHistSub equal-width sub-buckets, so one bucket
// spans a relative width of at most 1/logHistSub. Bin 0 is the
// underflow bin: zero, negative, and sub-2^(logHistMinExp-1) values
// (all reported as 0 — for the delay/hop observations this histogram
// serves, anything below a nanosecond is indistinguishable from zero).
// Values at or above 2^logHistMaxExp clamp into the top bin.
const (
	logHistSub    = 16
	logHistMinExp = -30
	logHistMaxExp = 20
	logHistBins   = (logHistMaxExp-logHistMinExp+1)*logHistSub + 1
)

// logHistBucket maps an observation to its bin. Exact float arithmetic
// only: 2*frac-1 is exact for frac in [0.5, 1), and the logHistSub
// scale is a power of two.
func logHistBucket(x float64) int {
	if x <= 0 || math.IsNaN(x) {
		return 0
	}
	frac, exp := math.Frexp(x)
	if exp < logHistMinExp {
		return 0
	}
	if exp > logHistMaxExp {
		return logHistBins - 1
	}
	s := int((2*frac - 1) * logHistSub)
	return 1 + (exp-logHistMinExp)*logHistSub + s
}

// logHistBounds returns the [lo, hi) value range of a non-underflow bin.
func logHistBounds(b int) (lo, hi float64) {
	e := (b-1)/logHistSub + logHistMinExp
	s := (b - 1) % logHistSub
	lo = math.Ldexp(1+float64(s)/logHistSub, e-1)
	hi = math.Ldexp(1+float64(s+1)/logHistSub, e-1)
	return lo, hi
}

// Add folds one observation into the histogram.
func (h *LogHist) Add(x float64) {
	if h.count == 0 || x < h.min {
		h.min = x
	}
	if h.count == 0 || x > h.max {
		h.max = x
	}
	h.count++
	h.sum += x
	h.bins[logHistBucket(x)]++
}

// N returns the observation count.
func (h *LogHist) N() int { return int(h.count) }

// Mean returns the exact mean (0 when empty).
func (h *LogHist) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Percentile returns the p-th percentile with Sample.Percentile's
// conventions (empty is 0, p<=0 the minimum, p>=100 the maximum,
// interior ranks linearly interpolated at rank p/100*(N-1)) — but
// answered from the buckets: each order statistic is located in its
// bin and placed by intra-bin linear interpolation. The result is
// within one bucket width of the exact sample percentile, a relative
// error of at most 1/logHistSub (6.25%) for positive observations
// (TestLogHistPercentileErrorBound pins this against exact Sample
// percentiles), and is clamped to the observed [Min, Max].
func (h *LogHist) Percentile(p float64) float64 {
	if h.count == 0 {
		return 0
	}
	if h.min == h.max {
		return h.min // constant distribution: exact
	}
	if p <= 0 {
		return h.min
	}
	if p >= 100 {
		return h.max
	}
	rank := p / 100 * float64(h.count-1)
	lo := math.Floor(rank)
	frac := rank - lo
	v := h.orderStat(uint64(lo))
	if frac > 0 {
		v += frac * (h.orderStat(uint64(lo)+1) - v)
	}
	return math.Min(math.Max(v, h.min), h.max)
}

// orderStat approximates the 0-based k-th smallest observation from
// the bins, spreading a bin's n observations evenly across its value
// range.
func (h *LogHist) orderStat(k uint64) float64 {
	var cum uint64
	for b := range h.bins {
		n := h.bins[b]
		if n == 0 {
			continue
		}
		if k < cum+n {
			if b == 0 {
				return 0
			}
			lo, hi := logHistBounds(b)
			return lo + (hi-lo)*((float64(k-cum)+0.5)/float64(n))
		}
		cum += n
	}
	return h.max
}

// Fingerprint digests the full histogram state (count, sum, extremes,
// and every occupied bin) into one FNV-1a hash. Two runs that fold the
// same observations in the same order fingerprint identically; the
// scengen harness uses this to assert the streaming-metrics pipeline
// is rerun-, worker-, and shard-count-invariant.
func (h *LogHist) Fingerprint() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	f := uint64(offset)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			f ^= v & 0xff
			f *= prime
			v >>= 8
		}
	}
	mix(h.count)
	mix(math.Float64bits(h.sum))
	mix(math.Float64bits(h.min))
	mix(math.Float64bits(h.max))
	for b := range h.bins {
		if h.bins[b] != 0 {
			mix(uint64(b))
			mix(h.bins[b])
		}
	}
	return f
}
