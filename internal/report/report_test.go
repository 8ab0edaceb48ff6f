package report

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/ntos/machine"
	"repro/internal/ntos/types"
	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/tracefmt"
)

// synthDS builds a small two-machine data set with known contents. Each
// call returns fresh MachineTraces so lazily derived state (instances,
// indexes) never leaks between computations under test.
func synthDS(t *testing.T) *analysis.DataSet {
	t.Helper()
	mk := func(name string, n int) *analysis.MachineTrace {
		var recs []tracefmt.Record
		now := sim.Time(0)
		add := func(r tracefmt.Record) {
			r.Start = now
			r.End = now + 100
			recs = append(recs, r)
			now += sim.Time(sim.Millisecond)
		}
		for i := 0; i < n; i++ {
			id := types.FileObjectID(i + 1)
			nm := tracefmt.Record{Kind: tracefmt.EvNameMap, FileID: id}
			nm.SetName(`C:\f` + name + `.txt`)
			add(nm)
			add(tracefmt.Record{Kind: tracefmt.EvCreate, FileID: id,
				Returned: int32(types.FileOpened), FileSize: 8192})
			add(tracefmt.Record{Kind: tracefmt.EvRead, FileID: id,
				Length: 4096, Returned: 4096, BytePos: 4096, FileSize: 8192})
			add(tracefmt.Record{Kind: tracefmt.EvFastRead, FileID: id,
				Annot: tracefmt.AnnotFromCache, Length: 4096, Returned: 4096,
				BytePos: 8192, FileSize: 8192})
			add(tracefmt.Record{Kind: tracefmt.EvCleanup, FileID: id})
			add(tracefmt.Record{Kind: tracefmt.EvClose, FileID: id})
		}
		return analysis.NewMachineTrace(name, machine.Personal, recs)
	}
	return &analysis.DataSet{Machines: []*analysis.MachineTrace{mk("a", 30), mk("b", 50)}}
}

func synth(t *testing.T) *Results {
	t.Helper()
	return ComputeWorkers(synthDS(t), runtime.GOMAXPROCS(0))
}

// renderAll concatenates every section of the report — the full
// observable output of a Results. There are no snapshots, so §5 renders
// its empty form.
func renderAll(t *testing.T, r *Results) string {
	t.Helper()
	var b strings.Builder
	for _, s := range Sections {
		text, err := s.Render(r, nil)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		b.WriteString(text)
	}
	return b.String()
}

func TestComputeWorkersDeterministic(t *testing.T) {
	// Parallel Compute must be byte-identical to serial at any worker
	// count — the same invariant the fleet engine pins with stream hashes.
	want := renderAll(t, ComputeWorkers(synthDS(t), 1))
	for _, workers := range []int{4, 8} {
		got := renderAll(t, ComputeWorkers(synthDS(t), workers))
		if got != want {
			t.Errorf("workers=%d render differs from serial", workers)
		}
	}
}

func TestBuildInstancesOncePerMachine(t *testing.T) {
	var mu sync.Mutex
	counts := map[string]int{}
	analysis.BuildInstancesHook = func(m string) {
		mu.Lock()
		counts[m]++
		mu.Unlock()
	}
	defer func() { analysis.BuildInstancesHook = nil }()

	r := ComputeWorkers(synthDS(t), runtime.GOMAXPROCS(0))
	// Rendering every figure — several of which consume the instance
	// table — must not trigger any rebuild.
	_ = renderAll(t, r)
	if len(counts) != 2 {
		t.Fatalf("machines built = %d, want 2", len(counts))
	}
	for m, n := range counts {
		if n != 1 {
			t.Errorf("BuildInstances ran %d times for %s, want 1", n, m)
		}
	}
}

func TestComputeAggregates(t *testing.T) {
	r := synth(t)
	if len(r.All) != 80 {
		t.Fatalf("instances = %d", len(r.All))
	}
	if len(r.PerMachine) != 2 {
		t.Fatalf("machines = %d", len(r.PerMachine))
	}
	if r.Controls.Opens != 80 || r.Controls.FailedOpens != 0 {
		t.Errorf("controls: %+v", r.Controls)
	}
	// Every session read twice, one hit of two reads → 50% hit rate.
	if got := r.Cache.CacheHitFraction(); got != 0.5 {
		t.Errorf("cache hit = %v", got)
	}
	if r.TotalRecords() != 80*6 {
		t.Errorf("TotalRecords = %d", r.TotalRecords())
	}
	if r.Duration() <= 0 {
		t.Error("Duration not positive")
	}
}

func TestOpenGapSampleMachinePicksBiggest(t *testing.T) {
	r := synth(t)
	if got := r.OpenGapSampleMachine().Name; got != "b" {
		t.Errorf("sample machine = %q, want b (more records)", got)
	}
}

func TestRenderersContainPaperAnchors(t *testing.T) {
	r := synth(t)
	checks := []struct {
		out    string
		anchor string
	}{
		{r.Table2(), "Average throughput"},
		{r.Table3(), "read-only"},
		{r.Figure1(), "run length"},
		{r.Figure5(), "local file system"},
		{r.Figure12(), "control operations"},
		{r.Figure13(), "FastIO Read"},
		{r.Figure14(), "IRP Write"},
		{r.Section8(), "paper: 74%"},
		{r.Section9(), "paper: 60%"},
		{r.Section10(), "paper: 59%"},
	}
	for _, c := range checks {
		if !strings.Contains(c.out, c.anchor) {
			t.Errorf("renderer output missing %q:\n%s", c.anchor, c.out[:min(200, len(c.out))])
		}
	}
}

func TestHoldCDFPredicates(t *testing.T) {
	r := synth(t)
	all := r.HoldCDF(nil)
	data := r.HoldCDF(analysis.DataSessions)
	ctl := r.HoldCDF(analysis.ControlSessions)
	if all.N() != data.N()+ctl.N() {
		t.Errorf("partition broken: all=%d data=%d ctl=%d", all.N(), data.N(), ctl.N())
	}
	if data.N() != 80 {
		t.Errorf("data sessions = %d", data.N())
	}
}

func TestEmptyResultsDoNotPanic(t *testing.T) {
	ds := &analysis.DataSet{Machines: []*analysis.MachineTrace{
		analysis.NewMachineTrace("empty", machine.WalkUp, nil),
	}}
	r := ComputeWorkers(ds, runtime.GOMAXPROCS(0))
	for _, s := range Sections {
		// Must not panic on an empty corpus.
		if _, err := s.Render(r, nil); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}

// TestSection5ExemplarDeterministic checks that the change-attribution
// line names the first machine|volume, in snapshot order, that has at
// least two snapshots, on every render.
func TestSection5ExemplarDeterministic(t *testing.T) {
	snap := func(machine, vol string, day int, files int) *snapshot.Snapshot {
		recs := []snapshot.WalkRecord{{IsDir: true, NumFiles: files}}
		for i := 0; i < files; i++ {
			recs = append(recs, snapshot.WalkRecord{Name: fmt.Sprintf("f%d.txt", i), Depth: 1, Size: 10})
		}
		s, err := snapshot.New(machine, vol, sim.Time(day)*sim.Time(sim.Day), recs)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	snaps := []*snapshot.Snapshot{
		snap("solo", `C:`, 0, 1),
		snap("m2", `D:`, 0, 1), snap("m1", `C:`, 0, 1),
		snap("m1", `C:`, 1, 3), snap("m2", `D:`, 1, 2),
	}
	r := synth(t)
	want := "  m2|D:: +1 ~0 -0 files"
	for i := 0; i < 20; i++ {
		out := r.Section5(snaps)
		if !strings.Contains(out, want) || strings.Contains(out, "m1|C:") {
			t.Fatalf("render %d: want the m2|D: exemplar only, got:\n%s", i, out)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
