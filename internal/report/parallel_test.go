package report_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// TestFanOutRendersMatchSerial renders Section 5 and the cache sweep of a
// small saved study at GOMAXPROCS 1, where par.For runs every slot in
// order on the caller, and at 4: the bytes must be identical.
func TestFanOutRendersMatchSerial(t *testing.T) {
	s := core.NewStudy(core.Config{
		Seed: 23, Machines: 4, Duration: 5 * sim.Minute,
		WithNetwork: true, SnapshotAtStart: true, Workers: 2,
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	c, err := core.LoadCorpusTrace(dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := report.ComputeWorkers(c.DS, 2)
	render := func(procs int) (string, string) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		return res.Section5(c.Snaps), res.CacheSweep([]float64{0.25, 1, 4, 16})
	}
	s5, sweep := render(1)
	if !strings.Contains(s5, "profile share") {
		t.Fatalf("Section 5 has no change attribution; the test needs a volume walked twice:\n%s", s5)
	}
	if strings.Count(sweep, "\n") != 2+12 {
		t.Fatalf("sweep has %d lines, want a header and 12 cells:\n%s", strings.Count(sweep, "\n"), sweep)
	}
	for i := 0; i < 3; i++ {
		gotS5, gotSweep := render(4)
		if gotS5 != s5 {
			t.Errorf("GOMAXPROCS=4 Section 5 differs from GOMAXPROCS=1:\n%s\nvs\n%s", gotS5, s5)
		}
		if gotSweep != sweep {
			t.Errorf("GOMAXPROCS=4 cache sweep differs from GOMAXPROCS=1:\n%s\nvs\n%s", gotSweep, sweep)
		}
	}
}

// TestSection5EdgeCases checks the two shapes with a missing slot: no
// snapshots at all, and snapshots with no volume walked twice.
func TestSection5EdgeCases(t *testing.T) {
	r := &report.Results{}
	if got := r.Section5(nil); !strings.Contains(got, "(no snapshots collected)") {
		t.Errorf("empty snapshot set rendered:\n%s", got)
	}
	snap := func(machine, vol string, files int) *snapshot.Snapshot {
		s := &snapshot.Snapshot{Machine: machine, Volume: vol,
			Records: []snapshot.WalkRecord{{IsDir: true, NumFiles: files}}}
		for i := 0; i < files; i++ {
			s.Records = append(s.Records, snapshot.WalkRecord{Name: fmt.Sprintf("f%d.exe", i), Depth: 1, Size: int64(100 * (i + 1))})
		}
		return s
	}
	// One walk per volume; m1 has two volumes, so two snapshots but no
	// volume walked twice.
	snaps := []*snapshot.Snapshot{snap("m1", `C:`, 3), snap("m1", `D:`, 5), snap("m2", `C:`, 2)}
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		got := r.Section5(snaps)
		runtime.GOMAXPROCS(prev)
		if strings.Contains(got, "profile share") {
			t.Errorf("GOMAXPROCS=%d: attribution line without a volume walked twice:\n%s", procs, got)
		}
		// The census names each machine once, from its first snapshot.
		if strings.Count(got, "  m1 ") != 1 || strings.Count(got, "  m2 ") != 1 || !strings.Contains(got, "  m1                    3 files") {
			t.Errorf("GOMAXPROCS=%d: census lines wrong:\n%s", procs, got)
		}
		if !strings.Contains(got, "exe/dll/font share of the top-1% sizes: 100%") {
			t.Errorf("GOMAXPROCS=%d: image share line wrong:\n%s", procs, got)
		}
	}
}
