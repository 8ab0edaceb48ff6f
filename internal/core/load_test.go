package core

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/ntos/machine"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// loadStudy is the small fleet the parallel-load tests save and reload:
// one machine of each category, network shares and a day-0 snapshot, so
// the corpus holds two snapshots per machine.
var (
	loadStudyOnce sync.Once
	loadStudyRun  *Study
	loadStudyErr  error
)

func loadStudy(t *testing.T) *Study {
	t.Helper()
	loadStudyOnce.Do(func() {
		s := NewStudy(Config{
			Seed: 31, Machines: 5, Duration: 5 * sim.Minute,
			WithNetwork: true, SnapshotAtStart: true, Workers: 2,
		})
		loadStudyErr = s.Run()
		loadStudyRun = s
	})
	if loadStudyErr != nil {
		t.Fatal(loadStudyErr)
	}
	return loadStudyRun
}

// saveConverted saves the study and adds legacy row streams (*.trz)
// beside every other machine's segment, as a corpus converted by an
// earlier build's fscorpus convert holds them: the load must read the
// segments and ignore the rows.
func saveConverted(t *testing.T) string {
	t.Helper()
	s := loadStudy(t)
	dir := t.TempDir()
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	for i, name := range s.Store.Machines() {
		if i%2 != 0 {
			continue
		}
		data, _, err := s.Store.ExportStream(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, safe(name)+".trz"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// withProcs runs f with GOMAXPROCS set to procs.
func withProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// loadView is everything a corpus load hands its callers, flattened for
// comparison.
type loadView struct {
	machines []string
	segments map[string]string
	snaps    []snapView
	report   string
}

// snapView is a snapshot's header and streamed records, so a loaded
// snapshot compares with a taken one and with a copy loaded elsewhere.
type snapView struct {
	Machine, Volume string
	TakenAt         sim.Time
	Records         []snapshot.WalkRecord
}

func viewSnap(t testing.TB, s *snapshot.Snapshot) snapView {
	t.Helper()
	v := snapView{Machine: s.Machine, Volume: s.Volume, TakenAt: s.TakenAt}
	if err := s.Each(func(r *snapshot.WalkRecord) { v.Records = append(v.Records, *r) }); err != nil {
		t.Fatal(err)
	}
	return v
}

func viewCorpus(t *testing.T, c *Corpus) loadView {
	t.Helper()
	v := loadView{segments: map[string]string{}}
	for _, s := range c.Snaps {
		v.snaps = append(v.snaps, viewSnap(t, s))
	}
	for _, mt := range c.DS.Machines {
		v.machines = append(v.machines, fmt.Sprintf("%s/%d/%d/%d", mt.Name, mt.Category, mt.Len(), len(mt.ProcNames)))
	}
	for name, seg := range c.Segments {
		sum := seg.SHA256()
		v.segments[name] = hex.EncodeToString(sum[:])
	}
	res := report.ComputeWorkers(c.DS, 1)
	v.report = res.Table1() + res.Table2() + res.Table3() + res.Section8() + res.Section9() + res.Section5(c.Snaps)
	return v
}

// TestLoadCorpusProcsInvariant pins the parallel load to the serial one:
// under GOMAXPROCS 1 and 4 a converted corpus loads the same machines in
// the same order, the same segments and snapshots, and renders the same
// report; the snapshots are the study's own, in file-name order.
func TestLoadCorpusProcsInvariant(t *testing.T) {
	dir := saveConverted(t)
	var views []loadView
	for _, procs := range []int{1, 4} {
		withProcs(procs, func() {
			c, err := LoadCorpusTrace(dir, nil, nil)
			if err != nil {
				t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
			}
			views = append(views, viewCorpus(t, c))
		})
	}
	serial, parallel := views[0], views[1]
	if !reflect.DeepEqual(serial.machines, parallel.machines) {
		t.Errorf("machines: serial %v, parallel %v", serial.machines, parallel.machines)
	}
	if !reflect.DeepEqual(serial.segments, parallel.segments) {
		t.Errorf("segment digests differ: serial %v, parallel %v", serial.segments, parallel.segments)
	}
	if serial.report != parallel.report {
		t.Errorf("rendered report differs between GOMAXPROCS 1 and 4")
	}
	if !reflect.DeepEqual(serial.snaps, parallel.snaps) {
		t.Errorf("snapshots differ between GOMAXPROCS 1 and 4")
	}
	if len(serial.segments) == 0 || len(serial.segments) != len(serial.machines) {
		t.Fatalf("%d segments for %d machines: not every machine loaded its segment", len(serial.segments), len(serial.machines))
	}

	s := loadStudy(t)
	var files []string
	byFile := map[string]*snapshot.Snapshot{}
	for i, sn := range s.Snapshots {
		name := fmt.Sprintf("%s-%03d.snap", safe(sn.Machine), i)
		files = append(files, name)
		byFile[name] = sn
	}
	sort.Strings(files)
	if len(parallel.snaps) != len(files) {
		t.Fatalf("loaded %d snapshots, saved %d", len(parallel.snaps), len(files))
	}
	for i, name := range files {
		if !reflect.DeepEqual(parallel.snaps[i], viewSnap(t, byFile[name])) {
			t.Errorf("snapshot %d is not %s", i, name)
		}
	}
}

// TestLoadCorpusFirstCorruptSnapshot corrupts two snapshots: at any
// GOMAXPROCS the error names the first in file-name order, as a serial
// load stops there.
func TestLoadCorpusFirstCorruptSnapshot(t *testing.T) {
	dir := saveConverted(t)
	snaps, err := filepath.Glob(filepath.Join(dir, "*.snap"))
	if err != nil || len(snaps) < 4 {
		t.Fatalf("saved %d snapshots (%v)", len(snaps), err)
	}
	sort.Strings(snaps)
	first, second := snaps[1], snaps[len(snaps)-1]
	for _, path := range []string{second, first} {
		if err := os.WriteFile(path, []byte("not a snapshot"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, procs := range []int{1, 4} {
		withProcs(procs, func() {
			_, err := LoadCorpusTrace(dir, nil, nil)
			if err == nil {
				t.Fatalf("GOMAXPROCS=%d: corrupt snapshots loaded", procs)
			}
			if !strings.Contains(err.Error(), filepath.Base(first)) {
				t.Errorf("GOMAXPROCS=%d: error %q does not name the first corrupt file %s", procs, err, filepath.Base(first))
			}
		})
	}
}

// TestLoadCorpusManifest checks the manifest is read fail-closed: a
// missing one (a corpus saved before manifests) loads, but one that
// exists and cannot be read fails the load instead of dropping every
// machine's category and process names.
func TestLoadCorpusManifest(t *testing.T) {
	dir := saveConverted(t)
	man := filepath.Join(dir, "manifest.json")
	c, err := LoadCorpusTrace(dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	cats := map[string]bool{}
	for _, mt := range c.DS.Machines {
		cats[mt.Category.String()] = true
		if len(mt.ProcNames) == 0 {
			t.Errorf("%s loaded without process names", mt.Name)
		}
	}
	if len(cats) != 5 {
		t.Errorf("loaded %d categories, saved 5", len(cats))
	}

	if err := os.Remove(man); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCorpusTrace(dir, nil, nil); err != nil {
		t.Errorf("corpus without a manifest: %v", err)
	}
	if err := os.Mkdir(man, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCorpusTrace(dir, nil, nil); err == nil || !strings.Contains(err.Error(), "manifest") {
		t.Errorf("manifest.json as a directory: err = %v, want a manifest error", err)
	}
	if err := os.Remove(man); err != nil {
		t.Fatal(err)
	}

	// A manifest that leaves a loaded machine out, lists one twice or
	// gives one a category outside the five fails the load, naming the
	// machine; one that lists a machine without a segment loads.
	infos := make([]MachineInfo, len(c.DS.Machines))
	for i, mt := range c.DS.Machines {
		infos[i] = MachineInfo{Name: mt.Name, Category: mt.Category, ProcNames: mt.ProcNames}
	}
	first := infos[0].Name
	bad := MachineInfo{Name: first, Category: machine.Scientific + 1}
	for what, list := range map[string][]MachineInfo{
		"unlisted":     infos[1:],
		"repeated":     append(slices.Clone(infos), infos[0]),
		"bad category": append([]MachineInfo{bad}, infos[1:]...),
	} {
		if err := WriteManifest(dir, list); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadCorpusTrace(dir, nil, nil); err == nil || !strings.Contains(err.Error(), strconv.Quote(first)) {
			t.Errorf("%s machine: err = %v, want one naming %q", what, err, first)
		}
	}
	if err := WriteManifest(dir, append(slices.Clone(infos), MachineInfo{Name: "idle"})); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCorpusTrace(dir, nil, nil); err != nil {
		t.Errorf("manifest listing a machine without a segment: %v", err)
	}
}

// FuzzCorpusManifest loads a saved 2-machine corpus under arbitrary
// manifest.json bytes: the load must fail, or give every machine the
// category and process names of its one entry in the manifest.
func FuzzCorpusManifest(f *testing.F) {
	s := NewStudy(Config{Seed: 3, Machines: 2, Duration: sim.Minute, Workers: 1})
	if err := s.Run(); err != nil {
		f.Fatal(err)
	}
	dir := f.TempDir()
	if err := s.Save(dir); err != nil {
		f.Fatal(err)
	}
	if c, err := LoadCorpusTrace(dir, nil, nil); err != nil || len(c.DS.Machines) != 2 {
		f.Fatalf("the saved corpus does not load its 2 machines (err %v)", err)
	}
	path := filepath.Join(dir, "manifest.json")
	saved, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(saved)
	var man manifest
	if err := json.Unmarshal(saved, &man); err != nil {
		f.Fatal(err)
	}
	for _, list := range [][]MachineInfo{
		man.Machines[1:],
		append(slices.Clone(man.Machines), man.Machines[0]),
		{{Name: man.Machines[0].Name, Category: 7}, man.Machines[1]},
	} {
		data, err := json.Marshal(manifest{Machines: list})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`null`))
	f.Add([]byte(`{"machines":[{"name":"m","category":300}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := LoadCorpusTrace(dir, nil, nil)
		if err != nil {
			return
		}
		var man manifest
		if err := json.Unmarshal(data, &man); err != nil {
			t.Fatalf("the load accepted a manifest that does not parse: %v", err)
		}
		for _, mt := range c.DS.Machines {
			var listed []MachineInfo
			for _, e := range man.Machines {
				if e.Name == mt.Name {
					listed = append(listed, e)
				}
			}
			if len(listed) != 1 {
				t.Fatalf("%s loaded, listed %d times", mt.Name, len(listed))
			}
			if e := listed[0]; mt.Category != e.Category || !maps.Equal(mt.ProcNames, e.ProcNames) {
				t.Fatalf("%s loaded as %v with %d process names, listed as %v with %d", mt.Name, mt.Category, len(mt.ProcNames), e.Category, len(e.ProcNames))
			}
		}
	})
}
