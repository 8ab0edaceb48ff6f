package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/ntos/machine"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := NewStudy(Config{Seed: 55, Machines: 2, Duration: sim.Hour,
		WithNetwork: true, SnapshotAtStart: true})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	c, err := LoadCorpusTrace(dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ds, snaps := c.DS, c.Snaps
	if len(ds.Machines) != 2 {
		t.Fatalf("loaded %d machines", len(ds.Machines))
	}
	orig, _ := s.DataSet()
	totalOrig, totalLoaded := 0, 0
	for _, mt := range orig.Machines {
		totalOrig += mt.Len()
	}
	for _, mt := range ds.Machines {
		totalLoaded += mt.Len()
		if mt.Category == machine.WalkUp && mt.Name == "" {
			t.Error("machine lost its identity")
		}
		if len(mt.ProcNames) == 0 {
			t.Errorf("machine %s lost process names", mt.Name)
		}
	}
	if totalOrig != totalLoaded {
		t.Errorf("records: saved %d, loaded %d", totalOrig, totalLoaded)
	}
	// Snapshots come back deep-equal, in file-name order.
	byFile := map[string]*snapshot.Snapshot{}
	var files []string
	for i, sn := range s.Snapshots {
		name := fmt.Sprintf("%s-%03d.snap", safe(sn.Machine), i)
		byFile[name] = sn
		files = append(files, name)
	}
	sort.Strings(files)
	if len(files) == 0 {
		t.Fatal("study took no snapshots")
	}
	if len(snaps) != len(files) {
		t.Fatalf("snapshots: saved %d, loaded %d", len(files), len(snaps))
	}
	for i, name := range files {
		if !reflect.DeepEqual(snaps[i], byFile[name]) {
			t.Errorf("snapshot %d (%s) differs after Save/Load", i, name)
		}
	}
	// A corpus saved before the binary format holds *.snap.json files;
	// it loads to the same snapshots in the same order.
	for _, name := range files {
		path := filepath.Join(dir, name)
		f, err := os.Create(path + ".json")
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewEncoder(f).Encode(byFile[name]); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
	}
	legacy, err := LoadCorpusTrace(dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(legacy.Snaps, snaps) {
		t.Error("legacy *.snap.json corpus loads different snapshots than the *.snap save")
	}
	// Category survives for at least one machine.
	foundCat := false
	for _, mt := range ds.Machines {
		if mt.Category != machine.WalkUp {
			foundCat = true
		}
	}
	_ = foundCat // fleet of 2 may be all walk-up after scaling; identity is what matters
}

// TestSnapshotCodecsEquivalent decodes a generated study's snapshots
// through the binary codec and through the legacy JSON one: both must
// give back exactly the snapshots the walk produced.
func TestSnapshotCodecsEquivalent(t *testing.T) {
	s := NewStudy(Config{Seed: 9, Machines: 3, Duration: sim.Minute, SnapshotAtStart: true})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(s.Snapshots) == 0 {
		t.Fatal("study took no snapshots")
	}
	for i, sn := range s.Snapshots {
		var bin, js bytes.Buffer
		if err := sn.Write(&bin); err != nil {
			t.Fatal(err)
		}
		if err := json.NewEncoder(&js).Encode(sn); err != nil {
			t.Fatal(err)
		}
		for codec, buf := range map[string]*bytes.Buffer{"binary": &bin, "json": &js} {
			got, err := snapshot.Read(buf)
			if err != nil {
				t.Fatalf("snapshot %d, %s: %v", i, codec, err)
			}
			if !reflect.DeepEqual(got, sn) {
				t.Errorf("snapshot %d (%s %s, %d records): %s decode differs", i, sn.Machine, sn.Volume, len(sn.Records), codec)
			}
		}
	}
}

func TestSaveBeforeRunFails(t *testing.T) {
	s := NewStudy(Config{Seed: 1, Machines: 1, Duration: sim.Minute})
	if err := s.Save(t.TempDir()); err == nil {
		t.Error("Save before Run succeeded")
	}
}

func TestLoadMissingDirFails(t *testing.T) {
	if _, err := LoadCorpusTrace("/nonexistent-dir-xyz", nil, nil); err == nil {
		t.Error("load of a missing dir succeeded")
	}
}

// readCorpusDir maps every file name in dir to its bytes.
func readCorpusDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = data
	}
	return files
}

// TestSaveProcsInvariant pins the parallel save to the serial one: under
// GOMAXPROCS 1 and 4 one study writes the same file names with the same
// bytes.
func TestSaveProcsInvariant(t *testing.T) {
	s := loadStudy(t)
	var saved []map[string][]byte
	for _, procs := range []int{1, 4} {
		dir := t.TempDir()
		withProcs(procs, func() {
			if err := s.Save(dir); err != nil {
				t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
			}
		})
		saved = append(saved, readCorpusDir(t, dir))
	}
	serial, parallel := saved[0], saved[1]
	// Segments, snapshots, the stem manifest and manifest.json.
	if want := len(s.Store.Machines()) + len(s.Snapshots) + 2; len(serial) != want || len(s.Snapshots) < 2 {
		t.Fatalf("serial save wrote %d files for %d machines and %d snapshots", len(serial), len(s.Store.Machines()), len(s.Snapshots))
	}
	if len(parallel) != len(serial) {
		t.Errorf("GOMAXPROCS 4 wrote %d files, GOMAXPROCS 1 %d", len(parallel), len(serial))
	}
	for name, data := range serial {
		if p, ok := parallel[name]; !ok || !bytes.Equal(p, data) {
			t.Errorf("%s differs between GOMAXPROCS 1 and 4", name)
		}
	}
}

// TestSaveFirstBlockedSnapshot puts a directory where two snapshots are
// to be written: at any GOMAXPROCS the error names the first in slot
// order, where a serial save stops.
func TestSaveFirstBlockedSnapshot(t *testing.T) {
	s := loadStudy(t)
	if len(s.Snapshots) < 4 {
		t.Fatalf("study took %d snapshots", len(s.Snapshots))
	}
	name := func(i int) string { return fmt.Sprintf("%s-%03d.snap", safe(s.Snapshots[i].Machine), i) }
	first, second := name(1), name(len(s.Snapshots)-1)
	for _, procs := range []int{1, 4} {
		dir := t.TempDir()
		for _, blocked := range []string{second, first} {
			if err := os.Mkdir(filepath.Join(dir, blocked), 0o755); err != nil {
				t.Fatal(err)
			}
		}
		withProcs(procs, func() {
			err := s.Save(dir)
			if err == nil {
				t.Fatalf("GOMAXPROCS=%d: Save over blocked snapshot paths succeeded", procs)
			}
			if !strings.Contains(err.Error(), first) {
				t.Errorf("GOMAXPROCS=%d: error %q does not name the first blocked snapshot %s", procs, err, first)
			}
		})
	}
}
