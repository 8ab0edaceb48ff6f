package replay

import (
	"fmt"
	"sort"

	"repro/internal/analysis"
	"repro/internal/tracefmt"
)

// Metrics are the headline workload characteristics used to judge a
// replay against its source corpus. They mirror the paper's summary
// measures: operation mix, FastIO share (§10), read/write balance (§5),
// control-open share (§6) and open-duration distribution (§7).
type Metrics struct {
	Machines int

	Opens       int
	FailedOpens int
	Reads       int
	Writes      int
	ReadBytes   int64
	WriteBytes  int64

	// Shares in [0,1].
	FailedOpenShare  float64 // failed opens / all open attempts
	ReadByteShare    float64 // read bytes / (read+write bytes)
	FastReadShare    float64 // reads served by FastIO / all reads
	FastWriteShare   float64
	ControlOpenShare float64 // opens that moved no data

	// Open-duration (open→cleanup) percentiles in seconds. Only
	// comparable for timing-faithful replays; fast mode collapses the
	// think time between operations.
	HoldP50, HoldP90 float64
}

// Measure computes replay-validation metrics over a corpus. It fails
// only when a machine's records cannot be read back.
func Measure(ds *analysis.DataSet) (Metrics, error) {
	var mx Metrics
	var holds []float64
	var fastReads, fastWrites, irpReads, irpWrites int

	for _, mt := range ds.Machines {
		mx.Machines++
		ins := mt.Instances()
		for _, in := range ins {
			if in.Failed {
				mx.FailedOpens++
				continue
			}
			mx.Opens++
			if !in.IsDataSession() {
				mx.ControlOpenShare++ // numerator; divided below
			}
		}
		holds = append(holds, analysis.HoldTimes(ins, analysis.DataSessions)...)

		recs, err := mt.Rows()
		if err != nil {
			return Metrics{}, err
		}
		for i := range recs {
			r := &recs[i]
			if r.FileID >= tracefmt.PagingObjectIDBase || !analysis.IsDataTransfer(r) {
				continue
			}
			n := int64(r.Returned)
			if analysis.IsRead(r) {
				mx.Reads++
				mx.ReadBytes += n
				if r.Kind.IsFastIo() {
					fastReads++
				} else {
					irpReads++
				}
			} else {
				mx.Writes++
				mx.WriteBytes += n
				if r.Kind.IsFastIo() {
					fastWrites++
				} else {
					irpWrites++
				}
			}
		}
	}

	attempts := mx.Opens + mx.FailedOpens
	if attempts > 0 {
		mx.FailedOpenShare = float64(mx.FailedOpens) / float64(attempts)
	}
	if mx.Opens > 0 {
		mx.ControlOpenShare /= float64(mx.Opens)
	}
	if total := mx.ReadBytes + mx.WriteBytes; total > 0 {
		mx.ReadByteShare = float64(mx.ReadBytes) / float64(total)
	}
	if n := fastReads + irpReads; n > 0 {
		mx.FastReadShare = float64(fastReads) / float64(n)
	}
	if n := fastWrites + irpWrites; n > 0 {
		mx.FastWriteShare = float64(fastWrites) / float64(n)
	}
	sort.Float64s(holds)
	mx.HoldP50 = percentile(holds, 0.50)
	mx.HoldP90 = percentile(holds, 0.90)
	return mx, nil
}

func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

// Tolerances bounds acceptable original-vs-replay deltas. Share fields
// are absolute deltas on [0,1] quantities; Count is the relative error
// allowed on event counts; Hold is the relative error on hold-time
// percentiles (checked only when Timing is set).
type Tolerances struct {
	Share  float64
	Count  float64
	Hold   float64
	Timing bool
}

// DefaultTolerances returns the standard acceptance bounds for a replay
// mode. Counts are bounded tightly — replay re-issues the recorded
// operations one for one — while shares get headroom for path divergence
// (cache state is rebuilt from scratch, so FastIO eligibility and cache
// hits shift at the margin). Hold times are only meaningful when the
// arrival process was reproduced, i.e. faithful mode.
func DefaultTolerances(mode Mode) Tolerances {
	return Tolerances{
		Share:  0.15,
		Count:  0.25,
		Hold:   0.35,
		Timing: mode == ModeFaithful,
	}
}

// Delta is one compared metric.
type Delta struct {
	Name     string
	Original float64
	Replayed float64
	// Err is the measured error in the units the tolerance is expressed
	// in (absolute for shares, relative for counts and times).
	Err, Allowed float64
	OK           bool
}

func (d Delta) String() string {
	verdict := "ok"
	if !d.OK {
		verdict = "FAIL"
	}
	return fmt.Sprintf("%-18s orig %12.4g  replay %12.4g  err %6.3f (≤%.3f) %s",
		d.Name, d.Original, d.Replayed, d.Err, d.Allowed, verdict)
}

// Validation is the full original-vs-replay comparison.
type Validation struct {
	Original, Replayed Metrics
	Deltas             []Delta
}

// Pass reports whether every delta is within tolerance.
func (v *Validation) Pass() bool {
	for _, d := range v.Deltas {
		if !d.OK {
			return false
		}
	}
	return true
}

// Compare diffs two metric sets under the given tolerances.
func Compare(orig, rep Metrics, tol Tolerances) *Validation {
	v := &Validation{Original: orig, Replayed: rep}

	absDelta := func(name string, o, r float64) {
		err := r - o
		if err < 0 {
			err = -err
		}
		v.Deltas = append(v.Deltas, Delta{
			Name: name, Original: o, Replayed: r,
			Err: err, Allowed: tol.Share, OK: err <= tol.Share,
		})
	}
	relDelta := func(name string, o, r, allowed float64) {
		var err float64
		switch {
		case o == 0 && r == 0:
			err = 0
		case o == 0:
			err = 1
		default:
			err = (r - o) / o
			if err < 0 {
				err = -err
			}
		}
		v.Deltas = append(v.Deltas, Delta{
			Name: name, Original: o, Replayed: r,
			Err: err, Allowed: allowed, OK: err <= allowed,
		})
	}

	relDelta("opens", float64(orig.Opens), float64(rep.Opens), tol.Count)
	relDelta("reads", float64(orig.Reads), float64(rep.Reads), tol.Count)
	relDelta("writes", float64(orig.Writes), float64(rep.Writes), tol.Count)
	relDelta("read-bytes", float64(orig.ReadBytes), float64(rep.ReadBytes), tol.Count)
	relDelta("write-bytes", float64(orig.WriteBytes), float64(rep.WriteBytes), tol.Count)
	absDelta("failed-open-share", orig.FailedOpenShare, rep.FailedOpenShare)
	absDelta("read-byte-share", orig.ReadByteShare, rep.ReadByteShare)
	absDelta("fast-read-share", orig.FastReadShare, rep.FastReadShare)
	absDelta("fast-write-share", orig.FastWriteShare, rep.FastWriteShare)
	absDelta("control-open-share", orig.ControlOpenShare, rep.ControlOpenShare)
	if tol.Timing {
		relDelta("hold-p50", orig.HoldP50, rep.HoldP50, tol.Hold)
		relDelta("hold-p90", orig.HoldP90, rep.HoldP90, tol.Hold)
	}
	return v
}

// Validate measures both corpora and compares them with the default
// tolerances for the replay mode.
func Validate(orig, replayed *analysis.DataSet, mode Mode) (*Validation, error) {
	om, err := Measure(orig)
	if err != nil {
		return nil, err
	}
	rm, err := Measure(replayed)
	if err != nil {
		return nil, err
	}
	return Compare(om, rm, DefaultTolerances(mode)), nil
}
