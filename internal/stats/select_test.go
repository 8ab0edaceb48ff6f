package stats

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"testing"
	"time"
)

// sortPercentile is the sort-based percentile SelectPercentile replaces:
// Summarize's sorted copy read by Summary.Percentile, as written before
// selection existed.
func sortPercentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// sortHill is the Hill estimator as written before selection: a full
// sort of a copy, reversed.
func sortHill(xs []float64, k int) float64 {
	if k < 2 || len(xs) <= k {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	slices.Sort(sorted)
	slices.Reverse(sorted)
	threshold := sorted[k]
	if threshold <= 0 {
		return 0
	}
	sum := 0.0
	for i := 0; i < k; i++ {
		if sorted[i] <= 0 {
			return 0
		}
		sum += math.Log(sorted[i] / threshold)
	}
	if sum == 0 {
		return 0
	}
	return float64(k) / sum
}

// propertyInputs generates samples of lengths 0–2000 in the shapes that
// stress a quickselect: random with many duplicates, heavy-tailed sizes,
// zeros and negatives, NaN, all-equal, sorted, reversed and organ-pipe.
// Zeros are +0 only: ±0 compare equal, so no sort fixes their relative
// order, and census sizes (converted from int64) are never -0.
func propertyInputs() map[string][]float64 {
	rng := rand.New(rand.NewSource(7))
	lengths := []int{0, 1, 2, 3, 5, 12, 13, 14, 31, 100, 101, 257, 1000, 1999, 2000}
	for i := 0; i < 8; i++ {
		lengths = append(lengths, rng.Intn(2001))
	}
	shapes := []struct {
		name string
		gen  func(n int) []float64
	}{
		{"dups", func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(rng.Intn(7))
			}
			return xs
		}},
		{"sizes", func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = math.Floor(math.Exp(rng.Float64() * 20))
			}
			return xs
		}},
		{"signed", func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				switch rng.Intn(3) {
				case 0:
					xs[i] = 0
				case 1:
					xs[i] = -rng.Float64() * 1e6
				default:
					xs[i] = rng.NormFloat64()
				}
			}
			return xs
		}},
		{"nan", func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				if rng.Intn(5) == 0 {
					xs[i] = math.NaN()
				} else {
					xs[i] = rng.Float64()*100 - 10
				}
			}
			return xs
		}},
		{"inf", func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				switch rng.Intn(6) {
				case 0:
					xs[i] = math.Inf(1)
				case 1:
					xs[i] = math.Inf(-1)
				default:
					xs[i] = float64(rng.Intn(50))
				}
			}
			return xs
		}},
		{"equal", func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = 42
			}
			return xs
		}},
		{"sorted", func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(i)
			}
			return xs
		}},
		{"reversed", func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(n - i)
			}
			return xs
		}},
		{"organpipe", func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(min(i, n-1-i))
			}
			return xs
		}},
	}
	out := map[string][]float64{}
	for _, shape := range shapes {
		for _, n := range lengths {
			out[shape.name+"/"+strconv.Itoa(n)] = shape.gen(n)
		}
	}
	return out
}

// TestSelectPercentileMatchesSort checks the selected percentile is the
// sort-based one bit for bit, on every input shape, at the percentiles
// the census reads and at the edges.
func TestSelectPercentileMatchesSort(t *testing.T) {
	ps := []float64{-5, 0, 0.1, 1, 25, 50, 75, 90, 99, 99.9, 100, 150}
	for name, xs := range propertyInputs() {
		for _, p := range ps {
			want := sortPercentile(xs, p)
			work := append([]float64(nil), xs...)
			got := SelectPercentile(work, p)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s p=%v: selected %v, sorted %v", name, p, got, want)
			}
			// Selection only reorders.
			a, b := append([]float64(nil), xs...), work
			slices.Sort(a)
			slices.Sort(b)
			if !slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
				t.Fatalf("%s p=%v: SelectPercentile changed the multiset of values", name, p)
			}
		}
	}
}

// TestSelectPercentilesMatchesSelectPercentile checks the chained
// selection against one SelectPercentile per percentile on a fresh copy,
// and against the sort-based percentile, bit for bit, on every input
// shape (ties, NaN and infinities; n = 0, 1, 2 and up to 2,000): the
// census's pair, and ascending lists that repeat a rank or reach past
// the edges.
func TestSelectPercentilesMatchesSelectPercentile(t *testing.T) {
	lists := [][]float64{{50, 90}, {0, 50, 50, 100}, {-5, 0.1, 25, 75, 99, 99.9, 150}, {90}, {}}
	for name, xs := range propertyInputs() {
		for _, ps := range lists {
			work := append([]float64(nil), xs...)
			got := SelectPercentiles(work, ps...)
			if len(got) != len(ps) {
				t.Fatalf("%s %v: %d values", name, ps, len(got))
			}
			for i, p := range ps {
				one := SelectPercentile(append([]float64(nil), xs...), p)
				sorted := sortPercentile(xs, p)
				if math.Float64bits(got[i]) != math.Float64bits(one) || math.Float64bits(got[i]) != math.Float64bits(sorted) {
					t.Fatalf("%s %v: p=%v selected %v, SelectPercentile %v, sorted %v", name, ps, p, got[i], one, sorted)
				}
			}
			a, b := append([]float64(nil), xs...), work
			slices.Sort(a)
			slices.Sort(b)
			if !slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
				t.Fatalf("%s %v: SelectPercentiles changed the multiset of values", name, ps)
			}
		}
	}
}

// TestHillMatchesSort checks the selecting Hill estimator against the
// full-sort one bit for bit, at the census's k and around the edges.
func TestHillMatchesSort(t *testing.T) {
	for name, xs := range propertyInputs() {
		n := len(xs)
		for _, k := range []int{0, 1, 2, 3, n/50 + 2, n / 3, n - 2, n - 1, n, n + 1} {
			orig := append([]float64(nil), xs...)
			want, got := sortHill(xs, k), Hill(xs, k)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s k=%d: Hill %v, sort-based %v", name, k, got, want)
			}
			if !slices.EqualFunc(orig, xs, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
				t.Fatalf("%s k=%d: Hill reordered its input", name, k)
			}
		}
	}
}

// TestSelectRankRandomised checks the selection invariant itself on
// random inputs and ranks: xs[k] is the k-th smallest, nothing before it
// is greater and nothing after it smaller.
func TestSelectRankRandomised(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(3000)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(rng.Intn(1 + rng.Intn(n)))
		}
		sorted := append([]float64(nil), xs...)
		slices.Sort(sorted)
		k := rng.Intn(n)
		selectRank(xs, k)
		checkSelected(t, xs, sorted, k)
	}
}

func checkSelected(t *testing.T, xs, sorted []float64, k int) {
	t.Helper()
	if xs[k] != sorted[k] {
		t.Fatalf("n=%d k=%d: selected %v, want %v", len(xs), k, xs[k], sorted[k])
	}
	for i, x := range xs {
		if (i < k && x > xs[k]) || (i > k && x < xs[k]) {
			t.Fatalf("n=%d k=%d: xs[%d]=%v is on the wrong side of %v", len(xs), k, i, x, xs[k])
		}
	}
}

// medianOfThreeKiller builds an input of n values on which a plain
// median-of-three quickselect for the median splits off only two values
// per partition: McIlroy's adversary ("A Killer Adversary for Quicksort",
// 1999) played against this file's own partition. Every value starts as
// "gas", above every value fixed so far and labelled by its start index.
// Before each round the adversary fixes the first and middle values of
// the range to the next two "solid" values, so the pivot — their median
// with the gas at the end — is the range's second smallest. Comparisons
// made against gas stay true once it is fixed, as later solids exceed
// every earlier pivot, so the input replays the same rounds.
func medianOfThreeKiller(t *testing.T, n int) []float64 {
	t.Helper()
	const gas = 1 << 40
	work := make([]float64, n)
	input := make([]float64, n)
	for i := range work {
		work[i] = gas + float64(i)
		input[i] = work[i]
	}
	solid := 0.0
	fix := func(pos int) {
		solid++
		input[int(work[pos]-gas)] = solid
		work[pos] = solid
	}
	k := n / 2
	lo, hi := 0, n
	rounds := 0
	for hi-lo > 12 {
		fix(lo)
		fix(lo + (hi-lo)/2)
		j := partition(work, lo, hi)
		if j-lo+1 != 2 {
			t.Fatalf("round %d split off %d values, not 2: the adversary no longer matches partition's pivot choice", rounds, j-lo+1)
		}
		rounds++
		if k <= j {
			break
		}
		lo = j + 1
	}
	if rounds < n/8 {
		t.Fatalf("adversary forced only %d rounds for n=%d", rounds, n)
	}
	return input
}

// TestSelectRankMedianOfThreeKiller runs the selection on an input that
// makes plain median-of-three quickselect quadratic (~3n²/16 element
// visits, ~50 M at this n). Introselect falls back to sorting after
// 2·log₂n rounds, so it must stay within a small multiple of one full
// sort of the same values; each side is timed at its fastest of five.
func TestSelectRankMedianOfThreeKiller(t *testing.T) {
	const n = 1 << 14
	killer := medianOfThreeKiller(t, n)
	sorted := append([]float64(nil), killer...)
	slices.Sort(sorted)

	fastest := func(f func(xs []float64)) time.Duration {
		best := time.Duration(math.MaxInt64)
		for i := 0; i < 5; i++ {
			xs := append([]float64(nil), killer...)
			start := time.Now()
			f(xs)
			best = min(best, time.Since(start))
		}
		return best
	}
	xs := append([]float64(nil), killer...)
	selectRank(xs, n/2)
	checkSelected(t, xs, sorted, n/2)
	sel := fastest(func(xs []float64) { selectRank(xs, n/2) })
	full := fastest(func(xs []float64) { slices.Sort(xs) })
	if sel > 10*full+time.Millisecond {
		t.Errorf("selection on the killer input took %v, more than ten full sorts (%v each)", sel, full)
	}
}

// TestSelectPercentilesHillMatches pins SelectPercentilesHill to
// SelectPercentiles and Hill run apart, bit for bit, on every property
// input at tail sizes that fit within the part above P90 and ones that
// do not.
func TestSelectPercentilesHillMatches(t *testing.T) {
	for name, xs := range propertyInputs() {
		for _, k := range []int{0, 2, len(xs)/50 + 2, len(xs) / 5, len(xs) - 1} {
			work := append([]float64(nil), xs...)
			got, alpha := SelectPercentilesHill(work, k, 50, 90)
			want := SelectPercentiles(append([]float64(nil), xs...), 50, 90)
			wantAlpha := Hill(xs, k)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s k=%d: percentile %d = %v, want %v", name, k, i, got[i], want[i])
				}
			}
			if math.Float64bits(alpha) != math.Float64bits(wantAlpha) {
				t.Fatalf("%s k=%d: α = %v, Hill %v", name, k, alpha, wantAlpha)
			}
		}
	}
}
