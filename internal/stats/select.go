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
	n := len(xs)
	switch {
	case n == 0:
		return 0
	case p <= 0:
		selectRank(xs, 0)
		return xs[0]
	case p >= 100:
		selectRank(xs, n-1)
		return xs[n-1]
	}
	lo, frac := percentileRank(n, p)
	selectRank(xs, lo)
	if lo+1 >= n {
		return xs[lo]
	}
	// The next order statistic is the smallest value selection left on
	// the right of rank lo.
	next := xs[lo+1]
	for _, x := range xs[lo+2:] {
		if cmp.Less(x, next) {
			next = x
		}
	}
	return xs[lo]*(1-frac) + next*frac
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
