package stats

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
)

// SelectPercentile returns Summarize(xs).Percentile(p) without sorting:
// it selects the one or two order statistics the interpolation reads,
// reordering xs in place instead of sorting a copy. The order is the
// one sort.Float64s and slices.Sort give (cmp.Less: NaN first), so the
// result is the same value.
func SelectPercentile(xs []float64, p float64) float64 {
	return SelectPercentiles(xs, p)[0]
}

// SelectPercentiles returns SelectPercentile(xs, p) for each p of ps,
// which must ascend: it selects the one or two order statistics each
// interpolation reads. Each selection runs within the part of xs that
// the one before left above its rank, which holds every greater order
// statistic, so the second of two percentiles costs a quickselect of
// that part instead of a full one.
func SelectPercentiles(xs []float64, ps ...float64) []float64 {
	out, _ := selectPercentiles(xs, ps)
	return out
}

// SelectPercentilesHill returns SelectPercentiles(xs, ps...) and
// Hill(xs, k) from one reordering of xs in place, without Hill's copy:
// Hill's selection runs within the part of xs that the last percentile's
// selection left above its rank when that part holds the k+1 largest
// values, and within all of xs otherwise. Hill reads the same values and
// sums them in the same order either way, so α is Hill's to the bit.
func SelectPercentilesHill(xs []float64, k int, ps ...float64) ([]float64, float64) {
	out, from := selectPercentiles(xs, ps)
	if len(xs)-from <= k {
		from = 0
	}
	return out, hillInPlace(xs[from:], k)
}

// selectPercentiles is SelectPercentiles that also returns from: xs[from:]
// holds every order statistic above the last percentile's lower rank.
func selectPercentiles(xs []float64, ps []float64) (out []float64, from int) {
	out = make([]float64, len(ps))
	n := len(xs)
	if n == 0 {
		return out, 0
	}
	// xs[from:] holds the order statistics from rank from up.
	for i, p := range ps {
		lo, frac, interpolate := n-1, 0.0, false
		switch {
		case p <= 0:
			lo = 0
		case p < 100:
			lo, frac = percentileRank(n, p)
			interpolate = true
		}
		if lo >= from {
			selectRank(xs[from:], lo-from)
			from = lo + 1
		}
		out[i] = xs[lo]
		if !interpolate || lo+1 >= n {
			continue
		}
		next := xs[lo+1]
		for _, x := range xs[lo+2:] {
			if cmp.Less(x, next) {
				next = x
			}
		}
		out[i] = xs[lo]*(1-frac) + next*frac
	}
	return out, from
}

// percentileRank places percentile p (0 < p < 100) in a sorted sample of
// n values: the lower rank and the fraction of the way to the next one.
func percentileRank(n int, p float64) (lo int, frac float64) {
	pos := p / 100 * float64(n-1)
	lo = int(math.Floor(pos))
	return lo, pos - float64(lo)
}

// selectRank reorders xs so that xs[k] holds the value a full ascending
// sort in cmp.Less order would put there, with no greater value before
// it and no smaller one after. It is an introselect: a median-of-three
// quickselect that sorts what is left of its range once 2·log₂n
// partitions have not isolated rank k, so no input makes it quadratic.
func selectRank(xs []float64, k int) {
	lo, hi := 0, len(xs)
	for budget := 2 * bits.Len(uint(len(xs))); hi-lo > 12 && budget > 0; budget-- {
		if j := partition(xs, lo, hi); k <= j {
			hi = j + 1
		} else {
			lo = j + 1
		}
	}
	slices.Sort(xs[lo:hi])
}

// partition is Hoare's partition of xs[lo:hi] (at least three values)
// around the median p of its first, middle and last values: it returns
// j with every value of xs[lo:j+1] no greater than p and every value of
// xs[j+1:hi] no less. As p is a median of three of the range's values,
// both parts are non-empty, so every call narrows the range; values
// equal to p may land on either side, which keeps a run of equal values
// from unbalancing the split.
func partition(xs []float64, lo, hi int) int {
	p := median3(xs[lo], xs[lo+(hi-lo)/2], xs[hi-1])
	i, j := lo, hi-1
	for {
		for cmp.Less(xs[i], p) {
			i++
		}
		for cmp.Less(p, xs[j]) {
			j--
		}
		if i >= j {
			return j
		}
		xs[i], xs[j] = xs[j], xs[i]
		i++
		j--
	}
}

// median3 returns the middle one of three values in cmp.Less order.
func median3(a, b, c float64) float64 {
	if cmp.Less(b, a) {
		a, b = b, a
	}
	if cmp.Less(c, b) {
		b = c
		if cmp.Less(b, a) {
			b = a
		}
	}
	return b
}
