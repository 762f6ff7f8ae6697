// Package stats provides the statistical accumulators the experiment
// harness reports with: running mean/variance, percentiles, the
// streaming log-spaced histogram (loghist.go), Jain's fairness index
// (the paper's load-balancing claim is quantified with it), and
// Student-t confidence intervals across replicated runs.
//
// # The empty-sample contract
//
// Scenario runs can legitimately produce no observations — a script
// whose flows all fail delivers zero packets — and the metrics pipeline
// must render such runs as defined numbers, never NaN or a panic. Every
// reduction here therefore has a pinned empty-input result:
//
//   - Accumulator and Sample moments (Mean, Std, Var, Max) are 0;
//   - Sample.Percentile and Sample.Median are 0;
//   - JainIndex of no loads is 0 (no flows — fairness is undefined and
//     reported as the out-of-range sentinel), while all-zero loads are
//     perfectly even and report 1;
//   - MeanCI of fewer than two samples has half-width 0.
//
// Consumers (scenario.RunScript, the experiment tables) rely on these
// values instead of re-guarding at every call site.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Accumulator keeps running count, mean, and variance using Welford's
// algorithm, plus min and max. The zero value is ready to use.
type Accumulator struct {
	n        uint64
	mean, m2 float64
	min, max float64
}

// Add records one observation.
func (a *Accumulator) Add(x float64) {
	a.n++
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	d := x - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (x - a.mean)
}

// Mean returns the sample mean, or 0 with no observations.
func (a *Accumulator) Mean() float64 { return a.mean }

// Var returns the unbiased sample variance.
func (a *Accumulator) Var() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// Std returns the sample standard deviation.
func (a *Accumulator) Std() float64 { return math.Sqrt(a.Var()) }

// Max returns the largest observation, or 0 with no observations.
func (a *Accumulator) Max() float64 { return a.max }

// String summarizes the accumulator for harness output.
func (a *Accumulator) String() string {
	return fmt.Sprintf("n=%d mean=%.4g std=%.4g min=%.4g max=%.4g",
		a.n, a.Mean(), a.Std(), a.min, a.max)
}

// Sample retains every observation so exact percentiles can be computed.
// Use it for bounded-cardinality metrics (per-run results); use
// Accumulator for per-packet metrics.
type Sample struct {
	xs     []float64
	sorted bool
}

// Add records one observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// N returns the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// Mean returns the sample mean, or 0 with no observations.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// Std returns the unbiased sample standard deviation.
func (s *Sample) Std() float64 {
	n := len(s.xs)
	if n < 2 {
		return 0
	}
	m := s.Mean()
	ss := 0.0
	for _, x := range s.xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n-1))
}

func (s *Sample) sort() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// Percentile returns the p-th percentile (0 <= p <= 100) using linear
// interpolation between closest ranks, or 0 with no observations.
func (s *Sample) Percentile(p float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.sort()
	if p <= 0 {
		return s.xs[0]
	}
	if p >= 100 {
		return s.xs[len(s.xs)-1]
	}
	rank := p / 100 * float64(len(s.xs)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.xs[lo]
	}
	frac := rank - float64(lo)
	return s.xs[lo]*(1-frac) + s.xs[hi]*frac
}

// Median returns the 50th percentile.
func (s *Sample) Median() float64 { return s.Percentile(50) }

// JainIndex computes Jain's fairness index of the loads xs:
// (sum x)^2 / (n * sum x^2). It is 1 for perfectly even load and 1/n when
// one element carries everything; the paper's load-balancing claim is
// "no node is more loaded than any others", i.e. index near 1.
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 1 // all zero loads are perfectly even
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// MeanCI returns the mean of xs and the half-width of its two-sided 95%
// Student-t confidence interval. With fewer than two samples the
// half-width is 0.
func MeanCI(xs []float64) (mean, halfWidth float64) {
	var s Sample
	for _, x := range xs {
		s.Add(x)
	}
	n := s.N()
	mean = s.Mean()
	if n < 2 {
		return mean, 0
	}
	t := tCritical95(n - 1)
	return mean, t * s.Std() / math.Sqrt(float64(n))
}

// tCritical95 returns the two-sided 95% critical value of Student's t
// with df degrees of freedom (table for small df, normal approximation
// beyond).
func tCritical95(df int) float64 {
	table := []float64{ // df = 1..30
		12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
		2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
		2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
	}
	if df <= 0 {
		return math.NaN()
	}
	if df <= len(table) {
		return table[df-1]
	}
	return 1.960
}
