// Package stats implements the statistical machinery of §4 and §7 of the
// paper: descriptive summaries, empirical CDFs with log-spaced binning for
// the figures, heavy-tail diagnostics (Hill estimator, log-log
// complementary distribution plots with least-squares tail slope), QQ data
// against Normal and Pareto references, and Poisson sample synthesis for
// the Figure 8 comparison.
package stats

import (
	"math"
	"sort"
)

// Summary holds the basic descriptors the paper reports (avg, stdev, min,
// max) plus count and selected percentiles.
type Summary struct {
	N      int
	Mean   float64
	Stdev  float64
	Min    float64
	Max    float64
	P50    float64
	P75    float64
	P90    float64
	P99    float64
	Sum    float64
	sorted []float64
}

// Summarize computes a Summary of xs. An empty input yields a zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	for _, x := range xs {
		s.Sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = s.Sum / float64(s.N)
	var sq float64
	for _, x := range xs {
		d := x - s.Mean
		sq += d * d
	}
	if s.N > 1 {
		s.Stdev = math.Sqrt(sq / float64(s.N-1))
	}
	s.sorted = append([]float64(nil), xs...)
	sort.Float64s(s.sorted)
	s.P50 = s.Percentile(50)
	s.P75 = s.Percentile(75)
	s.P90 = s.Percentile(90)
	s.P99 = s.Percentile(99)
	return s
}

// Percentile returns the p-th percentile (0..100) by linear interpolation
// of the sorted sample. It returns 0 for an empty Summary.
func (s Summary) Percentile(p float64) float64 {
	if len(s.sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return s.sorted[0]
	}
	if p >= 100 {
		return s.sorted[len(s.sorted)-1]
	}
	lo, frac := percentileRank(len(s.sorted), p)
	if lo+1 >= len(s.sorted) {
		return s.sorted[lo]
	}
	return s.sorted[lo]*(1-frac) + s.sorted[lo+1]*frac
}

// Percentile is a convenience for a one-shot percentile on raw data.
func Percentile(xs []float64, p float64) float64 {
	return Summarize(xs).Percentile(p)
}

// Correlation returns the Pearson correlation coefficient of the pairs
// (xs[i], ys[i]). It returns 0 when either side has zero variance or the
// slices are empty or mismatched.
func Correlation(xs, ys []float64) float64 {
	n := len(xs)
	if n == 0 || n != len(ys) {
		return 0
	}
	var mx, my float64
	for i := 0; i < n; i++ {
		mx += xs[i]
		my += ys[i]
	}
	mx /= float64(n)
	my /= float64(n)
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// LeastSquares fits y = a + b*x, returning intercept a and slope b. Given
// fewer than two points it returns (0, 0).
func LeastSquares(xs, ys []float64) (a, b float64) {
	n := len(xs)
	if n < 2 || n != len(ys) {
		return 0, 0
	}
	var sx, sy, sxx, sxy float64
	for i := 0; i < n; i++ {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	fn := float64(n)
	den := fn*sxx - sx*sx
	if den == 0 {
		return sy / fn, 0
	}
	b = (fn*sxy - sx*sy) / den
	a = (sy - b*sx) / fn
	return a, b
}
