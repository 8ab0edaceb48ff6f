package stats

import (
	"math"
	"slices"
	"sort"

	"repro/internal/dist"
	"repro/internal/sim"
)

// Hill computes the Hill estimator of the tail index α using the k largest
// order statistics. A random variable X is heavy-tailed when
// P[X > x] ~ x^-α as x → ∞ with 0 < α < 2; α < 2 indicates infinite
// variance and α < 1 infinite mean (footnote 1 of the paper). The paper
// reports Hill estimates between 1.2 and 1.7 across trace quantities.
//
// It returns 0 when the sample is too small or degenerate.
func Hill(xs []float64, k int) float64 {
	return hillInPlace(slices.Clone(xs), k)
}

// hillInPlace is Hill reordering xs in place instead of a copy.
func hillInPlace(xs []float64, k int) float64 {
	if k < 2 || len(xs) <= k {
		return 0
	}
	// Only the k+1 largest values matter: select them and sort just
	// those. top[k] ≥ … ≥ top[0], the (k+1)-th largest, which is the
	// threshold; the sum runs from the largest down.
	selectRank(xs, len(xs)-1-k)
	top := xs[len(xs)-1-k:]
	slices.Sort(top)
	threshold := top[0]
	if threshold <= 0 {
		return 0
	}
	sum := 0.0
	for i := k; i > 0; i-- {
		if top[i] <= 0 {
			return 0
		}
		sum += math.Log(top[i] / threshold)
	}
	if sum == 0 {
		return 0
	}
	return float64(k) / sum
}

// HillPlot returns Hill(xs, k) for k = kmin..kmax step; a stable plateau in
// the plot is the usual diagnostic for choosing k.
func HillPlot(xs []float64, kmin, kmax, step int) []struct {
	K     int
	Alpha float64
} {
	var out []struct {
		K     int
		Alpha float64
	}
	for k := kmin; k <= kmax && k < len(xs); k += step {
		out = append(out, struct {
			K     int
			Alpha float64
		}{k, Hill(xs, k)})
	}
	return out
}

// LLCDPoint is one point of a log-log complementary distribution plot:
// log10(x) against log10(P[X > x]).
type LLCDPoint struct {
	LogX float64
	LogP float64
}

// LLCD computes the log-log complementary distribution of xs at each
// distinct sample point (subsampled to at most maxPoints). A straight-line
// tail is the Figure 10 signature of power-law behaviour; Normal or
// lognormal data shows a sharp drop-off instead.
func LLCD(xs []float64, maxPoints int) []LLCDPoint {
	n := len(xs)
	if n == 0 {
		return nil
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	var pts []LLCDPoint
	stride := 1
	if maxPoints > 0 && n > maxPoints {
		stride = n / maxPoints
	}
	for i := 0; i < n-1; i += stride {
		x := sorted[i]
		if x <= 0 {
			continue
		}
		p := float64(n-1-i) / float64(n)
		if p <= 0 {
			break
		}
		pts = append(pts, LLCDPoint{LogX: math.Log10(x), LogP: math.Log10(p)})
	}
	return pts
}

// TailSlope estimates the heavy-tail α parameter by least-squares
// regression over the upper tail of the LLCD plot, using the points with
// x above the q-th quantile (e.g. q=0.9 fits the top decade, the method
// used for Figure 10). The returned α is the negated slope.
func TailSlope(xs []float64, q float64) float64 {
	pts := LLCD(xs, 0)
	if len(pts) < 4 {
		return 0
	}
	cut := int(q * float64(len(pts)))
	if cut >= len(pts)-2 {
		cut = len(pts) - 3
	}
	if cut < 0 {
		cut = 0
	}
	tail := pts[cut:]
	lx := make([]float64, len(tail))
	lp := make([]float64, len(tail))
	for i, p := range tail {
		lx[i] = p.LogX
		lp[i] = p.LogP
	}
	_, slope := LeastSquares(lx, lp)
	return -slope
}

// QQPoint pairs an observed quantile with the corresponding quantile of a
// reference distribution (Figure 9).
type QQPoint struct {
	Observed float64
	Expected float64
}

// qqBase is the conditioning point for the Figure 9 QQ fits: both
// reference distributions are fitted to and evaluated on the top decade
// of the sample — the same range Figure 10's LLCD slope is fitted over.
// The arrival-gap distribution is a mixture (microsecond intra-burst
// think gaps under heavy-tailed OFF periods), and the power law governs
// its tail; conditioning keeps the comparison on the question the figure
// asks.
const qqBase = 0.9

// QQNormal returns QQ-plot data of xs against a Normal with the sample's
// own mean and standard deviation (the "estimated parameters" of Fig. 9),
// evaluated on the same top-decade range.
func QQNormal(xs []float64, points int) []QQPoint {
	s := Summarize(xs)
	if s.N == 0 || points < 2 {
		return nil
	}
	out := make([]QQPoint, 0, points)
	for i := 1; i <= points; i++ {
		q := qqBase + (1-qqBase)*float64(i)/float64(points+1)
		out = append(out, QQPoint{
			Observed: s.Percentile(q * 100),
			Expected: s.Mean + s.Stdev*normalQuantile(q),
		})
	}
	return out
}

// QQPareto returns QQ-plot data of xs against a Pareto fitted to the
// sample's top decade: scale = the base quantile, shape = the maximum-likelihood
// estimate over values above it. Expected quantiles use the conditional
// Pareto CDF on the same range.
func QQPareto(xs []float64, points int) []QQPoint {
	s := Summarize(xs)
	if s.N == 0 || points < 2 {
		return nil
	}
	xm := s.Percentile(qqBase * 100)
	if xm <= 0 {
		xm = smallestPositive(s.sorted)
	}
	if xm <= 0 {
		return nil
	}
	// MLE for alpha over the conditioned tail: n / sum(log(x/xm)).
	sum := 0.0
	n := 0
	for _, x := range s.sorted {
		if x >= xm {
			sum += math.Log(x / xm)
			n++
		}
	}
	if sum == 0 || n == 0 {
		return nil
	}
	alpha := float64(n) / sum
	out := make([]QQPoint, 0, points)
	for i := 1; i <= points; i++ {
		q := qqBase + (1-qqBase)*float64(i)/float64(points+1)
		// Conditional CDF above xm: F(x | X >= xm) = 1 - (xm/x)^α.
		cond := (q - qqBase) / (1 - qqBase)
		out = append(out, QQPoint{
			Observed: s.Percentile(q * 100),
			Expected: xm / math.Pow(1-cond, 1/alpha),
		})
	}
	return out
}

// QQDeviation measures how far QQ data departs from the identity line:
// root-mean-square of (observed - expected), normalised by the observed
// standard deviation. Smaller is a better fit; Figure 9's conclusion is
// that the Pareto deviation is tiny while the Normal one is enormous.
func QQDeviation(pts []QQPoint) float64 {
	if len(pts) == 0 {
		return 0
	}
	obs := make([]float64, len(pts))
	var sq float64
	for i, p := range pts {
		obs[i] = p.Observed
		d := p.Observed - p.Expected
		sq += d * d
	}
	s := Summarize(obs)
	if s.Stdev == 0 {
		return 0
	}
	return math.Sqrt(sq/float64(len(pts))) / s.Stdev
}

// normalQuantile is the standard normal inverse CDF (Acklam's rational
// approximation; relative error < 1.15e-9, ample for plotting).
func normalQuantile(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	a := []float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
		1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := []float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
		6.680131188771972e+01, -1.328068155288572e+01}
	c := []float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
		-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := []float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
		3.754408661907416e+00}
	const plow = 0.02425
	const phigh = 1 - plow
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p > phigh:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	default:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	}
}

// PoissonSynth synthesises n inter-arrival gaps from a Poisson process
// whose rate matches the mean of the observed gaps — the comparison sample
// in the bottom row of Figure 8.
func PoissonSynth(observedGaps []float64, n int, seed uint64) []float64 {
	s := Summarize(observedGaps)
	if s.Mean <= 0 || n <= 0 {
		return nil
	}
	e := dist.NewExponential(1 / s.Mean)
	r := sim.NewRNG(seed)
	out := make([]float64, n)
	for i := range out {
		out[i] = e.Sample(r)
	}
	return out
}

// BinCounts converts a series of arrival gaps into per-interval event
// counts at the given interval width (same units as the gaps). This
// produces the Figure 8 panels: counts per 1 s, 10 s and 100 s.
func BinCounts(gaps []float64, width float64) []float64 {
	if width <= 0 || len(gaps) == 0 {
		return nil
	}
	now := 0.0
	end := 0.0
	for _, g := range gaps {
		end += g
	}
	nbins := int(end/width) + 1
	counts := make([]float64, nbins)
	for _, g := range gaps {
		now += g
		idx := int(now / width)
		if idx >= nbins {
			idx = nbins - 1
		}
		counts[idx]++
	}
	return counts
}

// IndexOfDispersion returns variance/mean of the counts — 1 for a Poisson
// process at any bin width, growing with scale for a heavy-tailed arrival
// process. It is the scalar the Figure 8 panels visualise.
func IndexOfDispersion(counts []float64) float64 {
	s := Summarize(counts)
	if s.Mean == 0 {
		return 0
	}
	return s.Stdev * s.Stdev / s.Mean
}
