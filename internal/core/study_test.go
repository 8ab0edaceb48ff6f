package core

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/analysis"
	"repro/internal/report"
	"repro/internal/sim"
)

// smallStudy runs a reduced fleet for calibration-style checks. It is
// cached across tests in the package run.
var cached *report.Results

func results(t *testing.T) *report.Results {
	t.Helper()
	if cached != nil {
		return cached
	}
	s := NewStudy(Config{
		Seed:        42,
		Machines:    10,
		Duration:    6 * sim.Hour,
		WithNetwork: true,
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	r, err := s.Results()
	if err != nil {
		t.Fatalf("Results: %v", err)
	}
	cached = r
	return r
}

func TestStudyProducesCorpus(t *testing.T) {
	r := results(t)
	if got := r.TotalRecords(); got < 50000 {
		t.Fatalf("total records = %d, too few for analysis", got)
	}
	if len(r.DS.Machines) < 8 {
		t.Errorf("machines with data = %d", len(r.DS.Machines))
	}
	if len(r.All) < 5000 {
		t.Errorf("instances = %d", len(r.All))
	}
}

func TestStudyControlDominance(t *testing.T) {
	// §8.3: 74% of opens are control/directory operations.
	r := results(t)
	f := r.Controls.ControlFraction()
	if f < 0.45 || f > 0.92 {
		t.Errorf("control fraction = %.2f, want ~0.74", f)
	}
}

func TestStudyOpenFailures(t *testing.T) {
	// §8.4: 12% of opens fail; not-found dominates, collisions second.
	r := results(t)
	f := r.Controls.FailureFraction()
	if f < 0.04 || f > 0.30 {
		t.Errorf("failure fraction = %.2f, want ~0.12", f)
	}
	if r.Controls.NotFoundErrors <= r.Controls.CollisionErrors {
		t.Errorf("not-found (%d) should dominate collisions (%d)",
			r.Controls.NotFoundErrors, r.Controls.CollisionErrors)
	}
}

func TestStudyCacheBehaviour(t *testing.T) {
	// §9: 60% of reads from cache; 92% single-prefetch sessions.
	r := results(t)
	hit := r.Cache.CacheHitFraction()
	if hit < 0.40 || hit > 0.95 {
		t.Errorf("cache hit fraction = %.2f, want ~0.60", hit)
	}
	sp := r.Cache.SinglePrefetchFraction()
	if sp < 0.70 {
		t.Errorf("single-prefetch fraction = %.2f, want ~0.92", sp)
	}
}

func TestStudyFastIOShares(t *testing.T) {
	// §10: 59% of reads and 96% of writes over FastIO; both majorities,
	// writes higher.
	r := results(t)
	rs, ws := 0.0, 0.0
	for _, v := range r.ReadShares {
		rs += v
	}
	for _, v := range r.WriteShares {
		ws += v
	}
	rs /= float64(len(r.ReadShares))
	ws /= float64(len(r.WriteShares))
	if rs < 0.35 || rs > 0.90 {
		t.Errorf("FastIO read share = %.2f, want ~0.59", rs)
	}
	if ws < 0.55 {
		t.Errorf("FastIO write share = %.2f, want ~0.96", ws)
	}
}

func TestStudyHoldTimes(t *testing.T) {
	// Fig 5: ~75% of data sessions are open < 10 ms; Fig 12: 90% < 1 s.
	r := results(t)
	c := r.HoldCDF(analysis.DataSessions)
	at10 := c.At(10)
	if at10 < 0.45 || at10 > 0.98 {
		t.Errorf("data sessions open <10ms = %.2f, want ~0.75", at10)
	}
	all := r.HoldCDF(nil)
	if got := all.At(1000); got < 0.75 {
		t.Errorf("sessions <1s = %.2f, want ~0.90", got)
	}
}

func TestStudyLifetimes(t *testing.T) {
	// §6.3: most new files die quickly; explicit deletes dominate
	// overwrites roughly 62/37.
	r := results(t)
	if len(r.Lifetimes.Samples) < 100 {
		t.Fatalf("lifetime samples = %d", len(r.Lifetimes.Samples))
	}
	ex := r.Lifetimes.MethodShare(analysis.DeleteExplicit)
	ow := r.Lifetimes.MethodShare(analysis.DeleteByOverwrite)
	tm := r.Lifetimes.MethodShare(analysis.DeleteByTempAttr)
	if ex < ow {
		t.Errorf("explicit share %.2f below overwrite %.2f; paper has 62/37", ex, ow)
	}
	if tm > 0.10 {
		t.Errorf("temp-attr share = %.2f, want ~0.01", tm)
	}
	dead := r.Lifetimes.DeadWithin(5 * sim.Second)
	if dead < 0.30 {
		t.Errorf("dead within 5s = %.2f, want substantial (paper ~0.81)", dead)
	}
}

func TestStudyHeavyTails(t *testing.T) {
	// §7: Hill α between 1.2 and 1.7 for open inter-arrivals; Pareto QQ
	// beats Normal.
	r := results(t)
	mt := r.OpenGapSampleMachine()
	gaps := analysis.AllOpenGaps(mt)
	if len(gaps) < 3000 {
		t.Fatalf("sample gaps = %d", len(gaps))
	}
	fig9 := r.Figure9()
	fig10 := r.Figure10()
	if fig9 == "" || fig10 == "" {
		t.Fatal("figure renderers empty")
	}
	// Dispersion must grow with scale (Figure 8's message).
	f8 := r.Figure8()
	if f8 == "" {
		t.Fatal("figure 8 empty")
	}
}

func TestStudyAccessPatterns(t *testing.T) {
	// Table 3: read-only dominates accesses (~79%); most access
	// sequential, whole-file the biggest RO bucket.
	r := results(t)
	pt := analysis.AccessPatterns(r.All)
	ro := pt.ClassAccesses[analysis.AccessReadOnly]
	if ro < 50 || ro > 95 {
		t.Errorf("read-only access share = %.0f%%, want ~79%%", ro)
	}
	wf := pt.Cells[analysis.AccessReadOnly][analysis.PatternWholeFile].Accesses
	if wf < 40 {
		t.Errorf("RO whole-file share = %.0f%%, want ~68%%", wf)
	}
	rw := pt.Cells[analysis.AccessReadWrite][analysis.PatternRandom].Accesses
	if rw < 30 {
		t.Errorf("RW random share = %.0f%%, want ~74%%", rw)
	}
}

func TestStudySnapshots(t *testing.T) {
	s := NewStudy(Config{Seed: 7, Machines: 3, Duration: sim.Hour, SnapshotAtStart: true})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// Start + end snapshots per machine (local volumes only).
	if len(s.Snapshots) < 6 {
		t.Errorf("snapshots = %d, want >= 6", len(s.Snapshots))
	}
	for _, snap := range s.Snapshots {
		if len(snap.Records) < 1000 {
			t.Errorf("snapshot of %s has %d records", snap.Machine, len(snap.Records))
		}
	}
}

func TestStudyDeterminism(t *testing.T) {
	run := func() int {
		s := NewStudy(Config{Seed: 99, Machines: 3, Duration: sim.Hour})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return s.TotalEvents()
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("same-seed studies produced %d vs %d events", a, b)
	}
	if a == 0 {
		t.Error("no events collected")
	}
}

func TestStudyRenderersNonEmpty(t *testing.T) {
	r := results(t)
	renders := map[string]string{
		"Table1": r.Table1(), "Table2": r.Table2(), "Table3": r.Table3(),
		"Fig1": r.Figure1(), "Fig2": r.Figure2(), "Fig3": r.Figure3(),
		"Fig4": r.Figure4(), "Fig5": r.Figure5(), "Fig6": r.Figure6(),
		"Fig7": r.Figure7(), "Fig8": r.Figure8(), "Fig9": r.Figure9(),
		"Fig10": r.Figure10(), "Fig11": r.Figure11(), "Fig12": r.Figure12(),
		"Fig13": r.Figure13(), "Fig14": r.Figure14(),
		"S6": r.Section6Lifetimes(), "S8": r.Section8(), "S9": r.Section9(),
		"S10": r.Section10(), "S7x": r.Section7SelfSim(),
		"Procs": r.ProcessView(), "Types": r.TypeView(),
		"CacheSweep": r.CacheSweep([]float64{1, 8}),
		"FollowUps":  r.FollowUps(),
	}
	for name, out := range renders {
		if len(out) < 40 {
			t.Errorf("%s renders only %d bytes", name, len(out))
		}
	}
}

// TestDataSetWorkersDeterministic pins that the parallel decode pool
// yields the same corpus as the serial loop: same machines, same order,
// identical records.
func TestDataSetWorkersDeterministic(t *testing.T) {
	s := NewStudy(Config{Seed: 5, Machines: 4, Duration: sim.Hour})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	base, err := s.DataSetWorkers(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{4, 8} {
		ds, err := s.DataSetWorkers(workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(ds.Machines) != len(base.Machines) {
			t.Fatalf("workers=%d: %d machines, want %d", workers, len(ds.Machines), len(base.Machines))
		}
		for i, mt := range ds.Machines {
			want := base.Machines[i]
			if mt.Name != want.Name {
				t.Fatalf("workers=%d machine %d = %q, want %q", workers, i, mt.Name, want.Name)
			}
			if !reflect.DeepEqual(mt.Table(), want.Table()) {
				t.Fatalf("workers=%d %s: column tables differ", workers, mt.Name)
			}
			if !reflect.DeepEqual(mt.Names(), want.Names()) {
				t.Fatalf("workers=%d %s: name maps differ", workers, mt.Name)
			}
			if !equalRows(t, mt, want) {
				t.Fatalf("workers=%d %s: rows differ", workers, mt.Name)
			}
		}
	}
}

// equalRows reports whether two traces hold the same records in the
// same order.
func equalRows(t *testing.T, a, b *analysis.MachineTrace) bool {
	t.Helper()
	ar, err := a.Rows()
	if err != nil {
		t.Fatal(err)
	}
	br, err := b.Rows()
	if err != nil {
		t.Fatal(err)
	}
	return slices.Equal(ar, br)
}
