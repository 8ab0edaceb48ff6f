package stats

import (
	"math"
	"sort"
	"testing"

	"repro/internal/sim"
)

// refWeightedCDF is the sort.Slice builder NewCDF and NewWeightedCDF
// replaced; refCDF is NewCDF's old form on top of it.
func refWeightedCDF(xs, ws []float64) *CDF {
	type pair struct{ v, w float64 }
	ps := make([]pair, len(xs))
	for i := range xs {
		w := ws[i]
		if w < 0 {
			w = 0
		}
		ps[i] = pair{xs[i], w}
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].v < ps[j].v })
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

func refCDF(xs []float64) *CDF {
	w := make([]float64, len(xs))
	for i := range w {
		w[i] = 1
	}
	return refWeightedCDF(xs, w)
}

// tiedSample draws n integer-valued samples from a small range, so most
// values repeat, with integer weights from -3 to 20 (zero and negative
// included).
func tiedSample(rng *sim.RNG, n int) (xs, ws []float64) {
	span := 1 + rng.Int63n(40)
	for i := 0; i < n; i++ {
		xs = append(xs, float64(rng.Int63n(span)*int64(1+rng.Int63n(3))))
		ws = append(ws, float64(rng.Int63n(24)-3))
	}
	return xs, ws
}

// sameCDF compares everything a renderer can read from two CDFs: N,
// Total, At at every sample value and between and beyond them, Quantile
// on a 0.001 grid and Points(16) in log and linear mode.
func sameCDF(t *testing.T, label string, got, want *CDF, xs []float64) {
	t.Helper()
	if got.N() != want.N() || got.Total() != want.Total() {
		t.Fatalf("%s: N %d Total %v, reference N %d Total %v", label, got.N(), got.Total(), want.N(), want.Total())
	}
	probes := []float64{math.Inf(-1), -1, math.Inf(1)}
	for _, x := range xs {
		probes = append(probes, x, x-0.5, x+0.5)
	}
	for _, x := range probes {
		if g, w := got.At(x), want.At(x); g != w {
			t.Fatalf("%s: At(%v) = %v, reference %v", label, x, g, w)
		}
	}
	for i := 0; i <= 1000; i++ {
		q := float64(i) / 1000
		if g, w := got.Quantile(q), want.Quantile(q); g != w {
			t.Fatalf("%s: Quantile(%v) = %v, reference %v", label, q, g, w)
		}
	}
	for _, logScale := range []bool{true, false} {
		g, w := got.Points(16, logScale), want.Points(16, logScale)
		if len(g) != len(w) {
			t.Fatalf("%s: Points(16, %v) has %d points, reference %d", label, logScale, len(g), len(w))
		}
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("%s: Points(16, %v)[%d] = %+v, reference %+v", label, logScale, i, g[i], w[i])
			}
		}
	}
}

// TestCDFBuildersMatchReference checks NewCDF and NewWeightedCDF against
// the sort.Slice builders on samples with many ties and integer weights,
// zero and negative ones included.
func TestCDFBuildersMatchReference(t *testing.T) {
	rng := sim.NewRNG(31)
	for trial := 0; trial < 200; trial++ {
		xs, ws := tiedSample(rng, int(rng.Int63n(300)))
		sameCDF(t, "NewCDF", NewCDF(xs), refCDF(xs), xs)
		sameCDF(t, "NewWeightedCDF", NewWeightedCDF(xs, ws), refWeightedCDF(xs, ws), xs)
		// Figure 2 weighs each sample by itself.
		sameCDF(t, "NewWeightedCDF self-weighted", NewWeightedCDF(xs, xs), refWeightedCDF(xs, xs), xs)
	}
	// The empty CDF and an all-zero weight set.
	sameCDF(t, "empty", NewCDF(nil), refCDF(nil), nil)
	zero := []float64{0, 0, 0}
	sameCDF(t, "zero weights", NewWeightedCDF([]float64{3, 1, 3}, zero), refWeightedCDF([]float64{3, 1, 3}, zero), []float64{1, 3})
}

// TestNewCDFCopiesInput checks the builder sorts its own copy.
func TestNewCDFCopiesInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	NewCDF(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input reordered: %v", xs)
	}
}
