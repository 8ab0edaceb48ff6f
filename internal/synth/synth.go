// Package synth closes the paper's loop from measurement to benchmarking:
// §1 wanted the collection usable "as configuration information for
// realistic file system benchmarks", and §7 (conclusion 3) demands that
// synthetic workloads model the heavy-tailed input parameters and ON/OFF
// activity correctly. Fit extracts a Profile — fitted heavy-tail
// parameters for inter-arrivals, request sizes, session volumes and the
// session-class mix — from a measured corpus; Replayer turns a Profile
// back into a workload.App that generates statistically faithful traffic
// against any simulated machine.
package synth

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"repro/internal/analysis"
	"repro/internal/dist"
	"repro/internal/fsgen"
	"repro/internal/ntos/types"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// TailFit is a fitted bounded-Pareto description of one quantity.
type TailFit struct {
	// Lo and Hi bound the distribution (p1 and max of the sample).
	Lo, Hi float64
	// Alpha is the Hill tail-index estimate.
	Alpha float64
}

// Sampler materialises the fit.
func (t TailFit) Sampler() dist.Sampler {
	lo, hi, a := t.Lo, t.Hi, t.Alpha
	if lo <= 0 {
		lo = 1e-6
	}
	if hi <= lo {
		hi = lo * 10
	}
	if a <= 0 || math.IsNaN(a) {
		a = 1.3
	}
	if a > 10 {
		a = 10
	}
	return dist.NewBoundedPareto(lo, hi, a)
}

// FitTail fits a bounded Pareto to a positive sample.
func FitTail(xs []float64) TailFit {
	var pos []float64
	for _, x := range xs {
		if x > 0 {
			pos = append(pos, x)
		}
	}
	if len(pos) < 10 {
		return TailFit{Lo: 1, Hi: 10, Alpha: 1.3}
	}
	s := stats.Summarize(pos)
	fit := TailFit{
		Lo:    s.Percentile(1),
		Hi:    s.Max,
		Alpha: stats.Hill(pos, len(pos)/20+2),
	}
	if fit.Lo <= 0 {
		fit.Lo = s.Min
	}
	return fit
}

// SizeHistogram is the empirical request-size mix (§8.2's 512/4096
// spikes survive fitting this way where a parametric family would smooth
// them away).
type SizeHistogram struct {
	Values  []float64
	Weights []float64
}

// Sampler materialises the histogram.
func (h SizeHistogram) Sampler() dist.Sampler {
	if len(h.Values) == 0 {
		return dist.NewConstant(4096)
	}
	return dist.NewChoice(h.Values, h.Weights)
}

// FitSizes builds a histogram over the most frequent exact sizes, with a
// tail bucket.
func FitSizes(xs []float64, topN int) SizeHistogram {
	counts := map[float64]int{}
	for _, x := range xs {
		if x > 0 {
			counts[x]++
		}
	}
	type kv struct {
		v float64
		n int
	}
	var all []kv
	for v, n := range counts {
		all = append(all, kv{v, n})
	}
	// Selection sort of the top N (N is small).
	for i := 0; i < len(all) && i < topN; i++ {
		best := i
		for j := i + 1; j < len(all); j++ {
			if all[j].n > all[best].n || (all[j].n == all[best].n && all[j].v < all[best].v) {
				best = j
			}
		}
		all[i], all[best] = all[best], all[i]
	}
	var h SizeHistogram
	rest := 0
	var restSum float64
	for i, e := range all {
		if i < topN {
			h.Values = append(h.Values, e.v)
			h.Weights = append(h.Weights, float64(e.n))
		} else {
			rest += e.n
			restSum += e.v * float64(e.n)
		}
	}
	if rest > 0 {
		h.Values = append(h.Values, restSum/float64(rest)) // tail bucket at its mean
		h.Weights = append(h.Weights, float64(rest))
	}
	return h
}

// Profile is the fitted workload description — serialisable, so a
// measured corpus can ship as a benchmark configuration.
type Profile struct {
	// OpenGapMS is the inter-arrival of open requests (milliseconds).
	OpenGapMS TailFit `json:"open_gap_ms"`
	// SessionBytes is the per-data-session transfer volume.
	SessionBytes TailFit `json:"session_bytes"`
	// ReadSizes and WriteSizes are the request-size mixes.
	ReadSizes  SizeHistogram `json:"read_sizes"`
	WriteSizes SizeHistogram `json:"write_sizes"`
	// Class mix over opens (fractions summing to ~1).
	ControlFraction   float64 `json:"control_fraction"`
	ReadOnlyFraction  float64 `json:"read_only_fraction"`
	WriteOnlyFraction float64 `json:"write_only_fraction"`
	ReadWriteFraction float64 `json:"read_write_fraction"`
	// FailProbeFraction is the share of opens that are existence probes
	// destined to fail.
	FailProbeFraction float64 `json:"fail_probe_fraction"`
}

// Fit extracts a Profile from a corpus. It fails only when a machine's
// records cannot be read back.
func Fit(ds *analysis.DataSet) (Profile, error) {
	var gaps, sessionBytes, readSizes, writeSizes []float64
	var control, ro, wo, rw, failed, total int
	for _, mt := range ds.Machines {
		ins := mt.Instances()
		var prev sim.Time
		first := true
		for _, in := range ins {
			if !first {
				gaps = append(gaps, in.OpenTime.Sub(prev).Milliseconds())
			}
			prev = in.OpenTime
			first = false
			total++
			switch {
			case in.Failed:
				failed++
			case !in.IsDataSession():
				control++
			case in.Class == analysis.AccessReadOnly:
				ro++
			case in.Class == analysis.AccessWriteOnly:
				wo++
			default:
				rw++
			}
			if in.IsDataSession() {
				sessionBytes = append(sessionBytes, float64(in.Bytes()))
			}
		}
		recs, err := mt.Rows()
		if err != nil {
			return Profile{}, err
		}
		for i := range recs {
			r := &recs[i]
			if !analysis.IsDataTransfer(r) {
				continue
			}
			if analysis.IsRead(r) {
				readSizes = append(readSizes, float64(r.Length))
			} else {
				writeSizes = append(writeSizes, float64(r.Length))
			}
		}
	}
	p := Profile{
		OpenGapMS:    FitTail(gaps),
		SessionBytes: FitTail(sessionBytes),
		ReadSizes:    FitSizes(readSizes, 12),
		WriteSizes:   FitSizes(writeSizes, 12),
	}
	if total > 0 {
		ft := float64(total)
		p.ControlFraction = float64(control) / ft
		p.ReadOnlyFraction = float64(ro) / ft
		p.WriteOnlyFraction = float64(wo) / ft
		p.ReadWriteFraction = float64(rw) / ft
		p.FailProbeFraction = float64(failed) / ft
	}
	return p, nil
}

// Write serialises the profile as JSON.
func (p Profile) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(p)
}

// ReadProfile deserialises a profile.
func ReadProfile(r io.Reader) (Profile, error) {
	var p Profile
	if err := json.NewDecoder(r).Decode(&p); err != nil {
		return p, fmt.Errorf("synth: decode profile: %w", err)
	}
	return p, nil
}

// Replayer is a workload.App that generates traffic matching a Profile.
type Replayer struct {
	P   *workload.Proc
	Lay *fsgen.Layout
	Pro Profile

	gapS    dist.Sampler
	bytesS  dist.Sampler
	readS   dist.Sampler
	writeS  dist.Sampler
	rng     *sim.RNG
	scratch int
}

// NewReplayer builds the replaying app over a machine layout.
func NewReplayer(p *workload.Proc, lay *fsgen.Layout, pro Profile, rng *sim.RNG) *Replayer {
	return &Replayer{
		P: p, Lay: lay, Pro: pro,
		gapS:   pro.OpenGapMS.Sampler(),
		bytesS: pro.SessionBytes.Sampler(),
		readS:  pro.ReadSizes.Sampler(),
		writeS: pro.WriteSizes.Sampler(),
		rng:    rng,
	}
}

// AppName implements workload.App.
func (r *Replayer) AppName() string { return "synthbench" }

// Burst implements workload.App: one open session drawn from the fitted
// class mix.
func (r *Replayer) Burst() sim.Duration {
	r.runSession()
	return sim.FromMilliseconds(r.gapS.Sample(r.rng))
}

func (r *Replayer) runSession() {
	p := r.P
	u := r.rng.Float64()
	pro := r.Pro
	switch {
	case u < pro.FailProbeFraction:
		p.ProbeExists(r.Lay.TempDir + fmt.Sprintf(`\probe%06x`, r.rng.Intn(1<<24)))
	case u < pro.FailProbeFraction+pro.ControlFraction:
		if f := r.pickFile(); f != "" {
			p.StatFile(f)
		}
	case u < pro.FailProbeFraction+pro.ControlFraction+pro.ReadOnlyFraction:
		r.readSession()
	case u < pro.FailProbeFraction+pro.ControlFraction+pro.ReadOnlyFraction+pro.WriteOnlyFraction:
		r.writeSession()
	default:
		r.rwSession()
	}
}

func (r *Replayer) pickFile() string {
	sets := [][]string{r.Lay.Documents, r.Lay.WebFiles, r.Lay.Libraries}
	for _, off := range []int{r.rng.Intn(3), 0, 1, 2} {
		if len(sets[off]) > 0 {
			return sets[off][r.rng.Intn(len(sets[off]))]
		}
	}
	return ""
}

func (r *Replayer) readSession() {
	f := r.pickFile()
	if f == "" {
		return
	}
	h, st := r.P.Open(f, types.AccessRead, types.DispositionOpen, 0, 0)
	if st.IsError() {
		return
	}
	budget := int64(r.bytesS.Sample(r.rng))
	for budget > 0 {
		n := int(r.readS.Sample(r.rng))
		if n < 1 {
			n = 1
		}
		got, st := r.P.Read(h, n)
		if st.IsError() || got == 0 {
			break
		}
		budget -= got
	}
	r.P.Close(h)
}

func (r *Replayer) writeSession() {
	r.scratch++
	name := r.Lay.TempDir + fmt.Sprintf(`\sb%06d.tmp`, r.scratch)
	h, st := r.P.Open(name, types.AccessWrite, types.DispositionCreate, 0, 0)
	if st.IsError() {
		return
	}
	budget := int64(r.bytesS.Sample(r.rng))
	for budget > 0 {
		n := int(r.writeS.Sample(r.rng))
		if n < 1 {
			n = 1
		}
		if _, st := r.P.Write(h, n); st.IsError() {
			break
		}
		budget -= int64(n)
	}
	r.P.Close(h)
	r.P.DeleteFile(name)
}

func (r *Replayer) rwSession() {
	f := r.pickFile()
	if f == "" {
		return
	}
	h, st := r.P.Open(f, types.AccessRead|types.AccessWrite, types.DispositionOpenIf, 0, 0)
	if st.IsError() {
		return
	}
	for i := 0; i < 2+r.rng.Intn(4); i++ {
		r.P.ReadAt(h, int64(r.rng.Intn(16))*4096, int(r.readS.Sample(r.rng)))
		r.P.WriteAt(h, int64(r.rng.Intn(16))*4096, int(r.writeS.Sample(r.rng)))
	}
	r.P.Close(h)
}
