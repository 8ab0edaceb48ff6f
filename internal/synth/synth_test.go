package synth

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/sim"
	"repro/internal/workload"
)

func TestFitTailRecoversPareto(t *testing.T) {
	p := dist.NewBoundedPareto(2, 50000, 1.4)
	rng := sim.NewRNG(1)
	xs := make([]float64, 50000)
	for i := range xs {
		xs[i] = p.Sample(rng)
	}
	fit := FitTail(xs)
	if math.Abs(fit.Alpha-1.4) > 0.3 {
		t.Errorf("fitted α = %v, want ~1.4", fit.Alpha)
	}
	if fit.Lo < 1.5 || fit.Lo > 4 {
		t.Errorf("fitted lo = %v", fit.Lo)
	}
	// Sampling the fit reproduces the band.
	s := fit.Sampler()
	for i := 0; i < 1000; i++ {
		v := s.Sample(rng)
		if v < fit.Lo || v > fit.Hi {
			t.Fatalf("fit sample %v out of [%v,%v]", v, fit.Lo, fit.Hi)
		}
	}
}

func TestFitTailDegenerate(t *testing.T) {
	fit := FitTail([]float64{0, -1})
	if fit.Sampler() == nil {
		t.Fatal("degenerate fit has no sampler")
	}
}

func TestFitSizesKeepsSpikes(t *testing.T) {
	// 512/4096 spikes plus noise.
	var xs []float64
	for i := 0; i < 600; i++ {
		xs = append(xs, 512)
	}
	for i := 0; i < 900; i++ {
		xs = append(xs, 4096)
	}
	for i := 0; i < 100; i++ {
		xs = append(xs, float64(1000+i))
	}
	h := FitSizes(xs, 2)
	if len(h.Values) != 3 { // two spikes + tail bucket
		t.Fatalf("histogram values = %v", h.Values)
	}
	if h.Values[0] != 4096 || h.Values[1] != 512 {
		t.Errorf("spikes = %v", h.Values[:2])
	}
	// The sampler reproduces the spike shares.
	rng := sim.NewRNG(2)
	s := h.Sampler()
	hits := map[float64]int{}
	for i := 0; i < 10000; i++ {
		hits[s.Sample(rng)]++
	}
	if frac := float64(hits[4096]) / 10000; math.Abs(frac-0.5625) > 0.03 {
		t.Errorf("4096 share = %v, want ~0.56", frac)
	}
}

func TestFitAndReplayEndToEnd(t *testing.T) {
	// Measure a real study, fit a profile, replay it on a fresh machine,
	// and verify the replay reproduces the fitted class mix.
	study := core.NewStudy(core.Config{Seed: 31, Machines: 2, Duration: sim.Hour})
	if err := study.Run(); err != nil {
		t.Fatal(err)
	}
	ds, err := study.DataSet()
	if err != nil {
		t.Fatal(err)
	}
	pro, err := Fit(ds)
	if err != nil {
		t.Fatal(err)
	}
	if pro.ControlFraction <= 0 || pro.ReadOnlyFraction <= 0 {
		t.Fatalf("degenerate profile: %+v", pro)
	}
	if pro.OpenGapMS.Alpha <= 0 {
		t.Error("no inter-arrival tail fitted")
	}

	// Round-trip through JSON.
	var buf bytes.Buffer
	if err := pro.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadProfile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.ControlFraction-pro.ControlFraction) > 1e-9 {
		t.Error("profile JSON round trip changed values")
	}

	// Replay on a fresh single machine.
	prepared := 0
	replay := core.NewStudy(core.Config{Seed: 32, Machines: 1, Duration: sim.Hour,
		// Swap the stock workload for the replayer only.
		Prepare: func(node *core.Node) {
			prepared++
			node.Driver.Apps = nil
			p := workload.NewProc(node.M, "synthbench", `C:`, sim.NewRNG(99))
			node.Driver.AddApp(NewReplayer(p, node.Layout, pro, sim.NewRNG(100)))
		}})
	if err := replay.Run(); err != nil {
		t.Fatal(err)
	}
	if prepared != 1 {
		t.Fatalf("Prepare called %d times for one machine", prepared)
	}
	rds, err := replay.DataSet()
	if err != nil {
		t.Fatal(err)
	}
	rpro, err := Fit(rds)
	if err != nil {
		t.Fatal(err)
	}
	// The replayed mix must resemble the source mix (coarsely: the
	// control share within 0.25 absolute).
	if math.Abs(rpro.ControlFraction-pro.ControlFraction) > 0.25 {
		t.Errorf("replayed control fraction %.2f vs source %.2f",
			rpro.ControlFraction, pro.ControlFraction)
	}
	if rpro.ReadOnlyFraction == 0 || rpro.WriteOnlyFraction == 0 {
		t.Errorf("replay missing classes: %+v", rpro)
	}
}
