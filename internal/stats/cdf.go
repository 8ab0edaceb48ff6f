package stats

import (
	"cmp"
	"math"
	"slices"
	"sort"
)

// CDFPoint is one point of an empirical cumulative distribution: the
// fraction (0..1) of mass at or below Value.
type CDFPoint struct {
	Value    float64
	Fraction float64
}

// CDF is an empirical cumulative distribution function over a sample,
// optionally weighted. It backs every cumulative-distribution figure in
// the paper (Figures 1–6, 11–14).
type CDF struct {
	values  []float64
	weights []float64 // cumulative weights, same length
	total   float64
}

// NewCDF builds an unweighted empirical CDF. The input is copied.
func NewCDF(xs []float64) *CDF {
	c := &CDF{values: slices.Clone(xs), weights: make([]float64, len(xs)), total: float64(len(xs))}
	slices.Sort(c.values)
	for i := range c.weights {
		c.weights[i] = float64(i + 1)
	}
	return c
}

// NewWeightedCDF builds a CDF where sample xs[i] carries weight ws[i]; the
// paper uses this for "weighted by bytes transferred" figures. Panics on
// mismatched lengths; negative weights are treated as zero.
//
// The order among equal values is unspecified, so the cumulative weight
// inside a run of equal values is too. At, Quantile and Points read only
// the values and the cumulative weight at the end of each run, which
// does not depend on that order when the weights are integers (every
// caller's are) and their sum is below 2^53.
func NewWeightedCDF(xs, ws []float64) *CDF {
	if len(xs) != len(ws) {
		panic("stats: CDF values/weights mismatch")
	}
	type pair struct{ v, w float64 }
	ps := make([]pair, len(xs))
	for i := range xs {
		w := ws[i]
		if w < 0 {
			w = 0
		}
		ps[i] = pair{xs[i], w}
	}
	slices.SortFunc(ps, func(a, b pair) int { return cmp.Compare(a.v, b.v) })
	c := &CDF{values: make([]float64, len(ps)), weights: make([]float64, len(ps))}
	acc := 0.0
	for i, p := range ps {
		acc += p.w
		c.values[i] = p.v
		c.weights[i] = acc
	}
	c.total = acc
	return c
}

// N returns the sample count.
func (c *CDF) N() int { return len(c.values) }

// Total returns the total weight.
func (c *CDF) Total() float64 { return c.total }

// At returns the fraction of weight with value <= x.
func (c *CDF) At(x float64) float64 {
	if c.total == 0 || len(c.values) == 0 {
		return 0
	}
	// Index of the last value <= x.
	i := sort.SearchFloat64s(c.values, math.Nextafter(x, math.Inf(1))) - 1
	if i < 0 {
		return 0
	}
	return c.weights[i] / c.total
}

// Quantile returns the smallest sample value v with At(v) >= q (q in 0..1).
func (c *CDF) Quantile(q float64) float64 {
	if len(c.values) == 0 {
		return 0
	}
	if q <= 0 {
		return c.values[0]
	}
	target := q * c.total
	i := sort.SearchFloat64s(c.weights, target)
	if i >= len(c.values) {
		i = len(c.values) - 1
	}
	return c.values[i]
}

// Points samples the CDF at n log-spaced (when logScale) or linear points
// across the data range — this is the series plotted in the figures.
func (c *CDF) Points(n int, logScale bool) []CDFPoint {
	if len(c.values) == 0 || n <= 0 {
		return nil
	}
	lo, hi := c.values[0], c.values[len(c.values)-1]
	pts := make([]CDFPoint, 0, n)
	if logScale {
		if lo <= 0 {
			lo = math.Max(1e-12, smallestPositive(c.values))
		}
		if hi <= lo {
			return []CDFPoint{{Value: hi, Fraction: 1}}
		}
		ratio := math.Pow(hi/lo, 1/float64(n-1))
		x := lo
		for i := 0; i < n; i++ {
			pts = append(pts, CDFPoint{Value: x, Fraction: c.At(x)})
			x *= ratio
		}
	} else {
		step := (hi - lo) / float64(n-1)
		if step == 0 {
			return []CDFPoint{{Value: lo, Fraction: 1}}
		}
		for i := 0; i < n; i++ {
			x := lo + float64(i)*step
			pts = append(pts, CDFPoint{Value: x, Fraction: c.At(x)})
		}
	}
	return pts
}

func smallestPositive(xs []float64) float64 {
	for _, x := range xs {
		if x > 0 {
			return x
		}
	}
	return 1
}

// HistogramBin is one log-spaced histogram bucket.
type HistogramBin struct {
	Lo, Hi float64
	Count  int
	Weight float64
}

// LogHistogram buckets xs into bins whose bounds grow by the given factor
// starting at lo. Values below lo land in the first bin; values beyond the
// last bin extend it.
func LogHistogram(xs []float64, lo float64, factor float64, bins int) []HistogramBin {
	if lo <= 0 || factor <= 1 || bins <= 0 {
		panic("stats: LogHistogram invalid parameters")
	}
	out := make([]HistogramBin, bins)
	b := lo
	for i := range out {
		out[i].Lo = b
		b *= factor
		out[i].Hi = b
	}
	for _, x := range xs {
		idx := 0
		if x > lo {
			idx = int(math.Log(x/lo) / math.Log(factor))
			if idx >= bins {
				idx = bins - 1
			}
			if idx < 0 {
				idx = 0
			}
		}
		out[idx].Count++
		out[idx].Weight += x
	}
	return out
}
