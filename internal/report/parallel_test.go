package report_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
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

// TestLoadedSection5MatchesTaken renders §5 from a saved study's
// snapshots loaded back, whose records are parsed from their file bytes
// as each slot reads them, and from the study's own taken snapshots in
// the order the load gives (file-name order): at GOMAXPROCS 1 and 4 the
// bytes must be identical.
func TestLoadedSection5MatchesTaken(t *testing.T) {
	s := core.NewStudy(core.Config{
		Seed: 31, Machines: 5, Duration: 5 * sim.Minute,
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
	// Study.Save names snapshot i of machine m "<m>-<i>.snap".
	byFile := map[string]*snapshot.Snapshot{}
	var files []string
	for i, sn := range s.Snapshots {
		name := fmt.Sprintf("%s-%03d.snap", sn.Machine, i)
		byFile[name] = sn
		files = append(files, name)
	}
	sort.Strings(files)
	var ordered []*snapshot.Snapshot
	for _, name := range files {
		ordered = append(ordered, byFile[name])
	}
	r := &report.Results{}
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		taken, errTaken := r.RenderSection5(ordered)
		loaded, errLoaded := r.RenderSection5(c.Snaps)
		runtime.GOMAXPROCS(prev)
		if errTaken != nil || errLoaded != nil {
			t.Fatalf("GOMAXPROCS=%d: taken err %v, loaded err %v", procs, errTaken, errLoaded)
		}
		if !strings.Contains(taken, "profile share") || strings.Count(taken, " files ") < 5 {
			t.Fatalf("GOMAXPROCS=%d: §5 lacks a census line per machine or the change attribution:\n%s", procs, taken)
		}
		if loaded != taken {
			t.Errorf("GOMAXPROCS=%d: §5 from the loaded corpus differs from the taken snapshots':\n%s\nvs\n%s", procs, loaded, taken)
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
		recs := []snapshot.WalkRecord{{IsDir: true, NumFiles: files}}
		for i := 0; i < files; i++ {
			recs = append(recs, snapshot.WalkRecord{Name: fmt.Sprintf("f%d.exe", i), Depth: 1, Size: int64(100 * (i + 1))})
		}
		s, err := snapshot.New(machine, vol, 0, recs)
		if err != nil {
			t.Fatal(err)
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

// TestRenderOrderIndependent renders every section of a small saved
// study in print order, in reverse and in a shuffled order, from one
// Results: the series several sections share are built once at compute
// time, so a renderer that modified one would change a later section's
// text, and every section must read the same in each order.
func TestRenderOrderIndependent(t *testing.T) {
	s := core.NewStudy(core.Config{
		Seed: 29, Machines: 4, Duration: 5 * sim.Minute,
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
	n := len(report.Sections)
	render := func(order []int) []string {
		texts := make([]string, n)
		for _, i := range order {
			text, err := report.Sections[i].Render(res, c.Snaps)
			if err != nil {
				t.Fatalf("%s: %v", report.Sections[i].Name, err)
			}
			texts[i] = text
		}
		return texts
	}
	printOrder, reverse := make([]int, n), make([]int, n)
	for i := range printOrder {
		printOrder[i], reverse[i] = i, n-1-i
	}
	want := render(printOrder)
	for name, order := range map[string][]int{
		"reverse":  reverse,
		"shuffled": rand.New(rand.NewSource(3)).Perm(n),
	} {
		for i, text := range render(order) {
			if text != want[i] {
				t.Errorf("%s order: section %s differs from print order:\n%s\nvs\n%s", name, report.Sections[i].Name, text, want[i])
			}
		}
	}
}
