package replay

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/sim"
)

// studyCorpus runs a small in-process study and returns its corpus — the
// same path fstrace uses, so the tests exercise real collected traces.
func studyCorpus(t *testing.T, machines int, dur sim.Duration, blocked bool) *analysis.DataSet {
	t.Helper()
	s := core.NewStudy(core.Config{
		Seed:          42,
		Machines:      machines,
		Duration:      dur,
		WithNetwork:   true,
		FastIOBlocked: blocked,
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	ds, err := s.DataSet()
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestBuildPlanCoversTrace(t *testing.T) {
	ds := studyCorpus(t, 2, sim.Hour, false)
	for _, mt := range ds.Machines {
		p, err := BuildPlan(mt)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := p.Records(), mt.Len(); got != want {
			t.Errorf("%s: plan covers %d records, trace has %d", mt.Name, got, want)
		}
		if len(p.Steps) == 0 {
			t.Errorf("%s: empty plan from %d records", mt.Name, mt.Len())
		}
		if len(p.Mounts) == 0 {
			t.Errorf("%s: no mounts discovered", mt.Name)
		}
		// Reconstruction should account for the overwhelming majority of
		// records: only unreplayable kinds and pre-trace sessions drop out.
		lost := p.Skips.Orphaned + p.Skips.Unresolved + p.Skips.Unreplayable
		if frac := float64(lost) / float64(mt.Len()); frac > 0.05 {
			t.Errorf("%s: %.1f%% of records lost in planning (orphaned=%d unresolved=%d unreplayable=%d)",
				mt.Name, 100*frac, p.Skips.Orphaned, p.Skips.Unresolved, p.Skips.Unreplayable)
		}
	}
}

func TestReplayFastValidates(t *testing.T) {
	ds := studyCorpus(t, 3, 2*sim.Hour, false)
	res, err := Replay(ds, Config{Mode: ModeFast, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, mr := range res.Machines {
		if mr.Issued == 0 {
			t.Errorf("%s: no steps issued", mr.Machine)
		}
		if frac := float64(mr.Dead) / float64(mr.Issued+mr.Dead+1); frac > 0.01 {
			t.Errorf("%s: %d dead steps of %d", mr.Machine, mr.Dead, mr.Issued)
		}
	}
	rds, err := res.DataSet(ds)
	if err != nil {
		t.Fatal(err)
	}
	v, err := Validate(ds, rds, ModeFast)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range v.Deltas {
		t.Logf("%s", d)
	}
	if !v.Pass() {
		t.Fatal("fast replay outside tolerance")
	}
}

func TestReplayFaithfulValidates(t *testing.T) {
	ds := studyCorpus(t, 2, 2*sim.Hour, false)
	res, err := Replay(ds, Config{Mode: ModeFaithful, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	rds, err := res.DataSet(ds)
	if err != nil {
		t.Fatal(err)
	}
	v, err := Validate(ds, rds, ModeFaithful)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range v.Deltas {
		t.Logf("%s", d)
	}
	if !v.Pass() {
		t.Fatal("faithful replay outside tolerance (timing included)")
	}
}

// TestReplayDeterminism is the reproducibility contract: the same corpus
// and seed must replay to identical I/O-manager counters and identical
// validation metrics, run to run.
func TestReplayDeterminism(t *testing.T) {
	ds := studyCorpus(t, 2, sim.Hour, false)
	for _, mode := range []Mode{ModeFast, ModeFaithful} {
		r1, err := Replay(ds, Config{Mode: mode, Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		r2, err := Replay(ds, Config{Mode: mode, Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		if len(r1.Machines) != len(r2.Machines) {
			t.Fatalf("%v: machine count differs", mode)
		}
		for i := range r1.Machines {
			a, b := r1.Machines[i], r2.Machines[i]
			if a.Stats != b.Stats {
				t.Errorf("%v/%s: stats differ:\n %+v\n %+v", mode, a.Machine, a.Stats, b.Stats)
			}
			if a.Issued != b.Issued || a.Diverged != b.Diverged || a.Dead != b.Dead {
				t.Errorf("%v/%s: counters differ", mode, a.Machine)
			}
			if a.VirtualEnd != b.VirtualEnd {
				t.Errorf("%v/%s: virtual clocks differ: %v vs %v", mode, a.Machine, a.VirtualEnd, b.VirtualEnd)
			}
		}
		d1, err := r1.DataSet(ds)
		if err != nil {
			t.Fatal(err)
		}
		d2, err := r2.DataSet(ds)
		if err != nil {
			t.Fatal(err)
		}
		m1, err := Measure(d1)
		if err != nil {
			t.Fatal(err)
		}
		m2, err := Measure(d2)
		if err != nil {
			t.Fatal(err)
		}
		if m1 != m2 {
			t.Errorf("%v: metrics differ:\n %+v\n %+v", mode, m1, m2)
		}
	}
}

// TestReplayBlockFastIO re-runs the §10 ablation against a recorded
// workload: with the Opaque filter inserted, no FastIO may succeed.
func TestReplayBlockFastIO(t *testing.T) {
	ds := studyCorpus(t, 2, sim.Hour, false)
	res, err := Replay(ds, Config{Mode: ModeFast, Seed: 7, BlockFastIO: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, mr := range res.Machines {
		if mr.Stats.FastIoSucceeded != 0 {
			t.Errorf("%s: %d FastIO calls succeeded through the Opaque filter",
				mr.Machine, mr.Stats.FastIoSucceeded)
		}
		if mr.Stats.IrpDispatches == 0 {
			t.Errorf("%s: no IRP traffic", mr.Machine)
		}
	}
	rds, err := res.DataSet(ds)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Measure(rds)
	if err != nil {
		t.Fatal(err)
	}
	if m.FastReadShare != 0 || m.FastWriteShare != 0 {
		t.Errorf("blocked replay still shows FastIO shares: %v / %v", m.FastReadShare, m.FastWriteShare)
	}
}

func TestParseMode(t *testing.T) {
	if m, err := ParseMode("fast"); err != nil || m != ModeFast {
		t.Errorf("fast: %v %v", m, err)
	}
	if m, err := ParseMode("faithful"); err != nil || m != ModeFaithful {
		t.Errorf("faithful: %v %v", m, err)
	}
	if _, err := ParseMode("warp"); err == nil {
		t.Error("warp accepted")
	}
}
