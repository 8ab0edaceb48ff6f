package core

import (
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

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

// saveConverted saves the study and adds legacy row streams beside every
// other machine's segment, as a corpus converted by fscorpus convert
// holds them: the load must read the segments and ignore the rows.
func saveConverted(t *testing.T) string {
	t.Helper()
	s := loadStudy(t)
	dir := t.TempDir()
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	var rows []string
	for i, name := range s.Store.Machines() {
		if i%2 == 0 {
			rows = append(rows, name)
		}
	}
	writeRowStreams(t, s, dir, rows)
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
	snaps    []*snapshot.Snapshot
	report   string
}

func viewCorpus(t *testing.T, c *Corpus) loadView {
	t.Helper()
	v := loadView{segments: map[string]string{}, snaps: c.Snaps}
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
		if !reflect.DeepEqual(parallel.snaps[i], byFile[name]) {
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
}
