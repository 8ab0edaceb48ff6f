package core

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/collect"
	"repro/internal/colstore"
	"repro/internal/report"
	"repro/internal/sim"
)

// colstoreConfig is the shared small fleet of the columnar tests.
func colstoreConfig(workers int) Config {
	return Config{
		Seed:            23,
		Machines:        6,
		Duration:        sim.Hour,
		WithNetwork:     true,
		SnapshotAtStart: true,
		Workers:         workers,
	}
}

func renderReport(t *testing.T, res *report.Results) string {
	t.Helper()
	return res.Table1() + res.Table2() + res.Table3() + res.Section8() + res.Section9()
}

// streamDigest inflates one machine's stored DEFLATE stream and digests
// its logical record bytes — the stream-side half of the equivalence
// proof.
func streamDigest(t *testing.T, s *Study, name string) [sha256.Size]byte {
	t.Helper()
	data, _, err := s.Store.ExportStream(name)
	if err != nil {
		t.Fatal(err)
	}
	zr := flate.NewReader(bytes.NewReader(data))
	defer zr.Close()
	h := sha256.New()
	if _, err := io.Copy(h, zr); err != nil {
		t.Fatal(err)
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// writeRowStreams writes the named machines' stored streams as legacy
// row files (<name>.trz) into dir, the layout the program saved before
// segments were its only one. Study machine names are already safe file
// stems, so no stem manifest is needed.
func writeRowStreams(t *testing.T, s *Study, dir string, names []string) {
	t.Helper()
	for _, name := range names {
		data, _, err := s.Store.ExportStream(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, collect.SafeName(name)+".trz"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestColstoreStudyByteIdentical is the end-to-end equivalence proof:
// the traces Study.DataSet builds from the collected records and the
// traces loaded from the saved segments must render byte-identical
// reports, and each machine's segment must carry the SHA-256 of exactly
// the bytes its stored stream inflates to — at every worker count the
// fleet engine supports.
func TestColstoreStudyByteIdentical(t *testing.T) {
	var wantReport string
	var wantSums map[string][sha256.Size]byte
	for _, workers := range []int{1, 4, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			dir := t.TempDir()
			s := NewStudy(colstoreConfig(workers))
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
			if err := s.Save(dir); err != nil {
				t.Fatal(err)
			}
			recDS, err := s.DataSet()
			if err != nil {
				t.Fatal(err)
			}
			c, err := LoadCorpusTrace(dir, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			recReport := renderReport(t, report.ComputeWorkers(recDS, workers))
			segReport := renderReport(t, report.ComputeWorkers(c.DS, workers))
			if recReport != segReport {
				t.Fatal("records-built and segment-loaded traces rendered different reports")
			}
			if wantReport == "" {
				wantReport = segReport
			} else if segReport != wantReport {
				t.Fatalf("report diverged at %d workers", workers)
			}

			if len(c.Segments) != len(s.Store.Machines()) {
				t.Fatalf("loaded %d segments for %d machines", len(c.Segments), len(s.Store.Machines()))
			}
			sums := map[string][sha256.Size]byte{}
			for name, seg := range c.Segments {
				if got, want := seg.SHA256(), streamDigest(t, s, name); got != want {
					t.Errorf("%s: segment digest %x != stream digest %x", name, got, want)
				}
				if err := seg.VerifySHA(); err != nil {
					t.Errorf("%s: %v", name, err)
				}
				sums[name] = seg.SHA256()
			}
			if wantSums == nil {
				wantSums = sums
			} else {
				for name, sum := range sums {
					if wantSums[name] != sum {
						t.Errorf("%s: segment digest changed with worker count", name)
					}
				}
			}
		})
	}
}

// TestColstoreLoadPrefersSegments pins how the loader treats legacy row
// streams: a directory of *.trz files alone fails to load, naming a file
// and the converter; once converted (collect.LoadDir, then
// SaveColumnarDir beside the row files, as fscorpus convert does) it
// holds every file of the study's own save byte for byte and loads
// through those segments.
func TestColstoreLoadPrefersSegments(t *testing.T) {
	s := NewStudy(colstoreConfig(2))
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	ownDir, legacyDir := t.TempDir(), t.TempDir()
	if err := s.Save(ownDir); err != nil {
		t.Fatal(err)
	}
	// A legacy corpus: the same manifest and snapshots, row streams in
	// place of segments.
	for name, data := range readCorpusDir(t, ownDir) {
		if strings.HasSuffix(name, collect.ColumnarExt) || name == collect.StemManifestName {
			continue
		}
		if err := os.WriteFile(filepath.Join(legacyDir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	machines := s.Store.Machines()
	writeRowStreams(t, s, legacyDir, machines)
	_, err := LoadCorpusTrace(legacyDir, nil, nil)
	if err == nil || !strings.Contains(err.Error(), machines[0]+".trz") || !strings.Contains(err.Error(), "fscorpus convert") {
		t.Fatalf("row-only corpus: err = %v, want an error naming %s.trz and fscorpus convert", err, machines[0])
	}

	store, err := collect.LoadDir(legacyDir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.SaveColumnarDir(legacyDir, colstore.Options{}); err != nil {
		t.Fatal(err)
	}
	own, converted := readCorpusDir(t, ownDir), readCorpusDir(t, legacyDir)
	for name, data := range own {
		if !bytes.Equal(converted[name], data) {
			t.Errorf("%s: converted corpus differs from the study's own save", name)
		}
	}
	c, err := LoadCorpusTrace(legacyDir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Segments) != len(machines) || len(c.DS.Machines) != len(machines) {
		t.Fatalf("converted corpus loaded %d segments and %d traces for %d machines", len(c.Segments), len(c.DS.Machines), len(machines))
	}
}

// TestColstoreCheckpointResume pins resume through the one saved layout:
// a study restored from checkpoints (each holding a machine's stream and
// snapshots) saves a directory byte-identical to the uninterrupted
// run's: segments, snapshots and both manifests.
func TestColstoreCheckpointResume(t *testing.T) {
	ckpt := t.TempDir()
	cfg := colstoreConfig(2)
	cfg.CheckpointDir = ckpt

	oneDir := t.TempDir()
	one := NewStudy(cfg)
	if err := one.Run(); err != nil {
		t.Fatal(err)
	}
	if err := one.Save(oneDir); err != nil {
		t.Fatal(err)
	}

	cfg.Resume = true
	twoDir := t.TempDir()
	two := NewStudy(cfg)
	restored := 0
	for _, n := range two.Nodes {
		if n.Restored {
			restored++
		}
	}
	if restored != cfg.Machines {
		t.Fatalf("resume restored %d of %d machines", restored, cfg.Machines)
	}
	if err := two.Run(); err != nil {
		t.Fatal(err)
	}
	if err := two.Save(twoDir); err != nil {
		t.Fatal(err)
	}

	a, b := readCorpusDir(t, oneDir), readCorpusDir(t, twoDir)
	segFiles := 0
	for name, data := range a {
		if strings.HasSuffix(name, collect.ColumnarExt) {
			segFiles++
		}
		if !bytes.Equal(b[name], data) {
			t.Errorf("%s: resumed save differs from uninterrupted save", name)
		}
	}
	if len(b) != len(a) {
		t.Errorf("resumed save wrote %d files, uninterrupted save %d", len(b), len(a))
	}
	if segFiles == 0 {
		t.Fatal("study saved no segments")
	}
}

// renderEverything concatenates every report artefact except the cache
// sweep (a replay simulation, not a compute kernel) — the full
// observable output the vectorized kernels must reproduce.
func renderEverything(r *report.Results) string {
	var b strings.Builder
	for _, f := range []func() string{
		r.Table1, r.Table2, r.Table3, r.Figure1, r.Figure2, r.Figure3,
		r.Figure4, r.Figure5, r.Figure6, r.Figure7, r.Figure8, r.Figure9,
		r.Figure10, r.Figure11, r.Figure12, r.Figure13, r.Figure14,
		r.Section6Lifetimes, r.Section7SelfSim, r.Section8, r.Section9,
		r.Section10, r.ProcessView, r.TypeView, r.FollowUps,
	} {
		b.WriteString(f())
	}
	return b.String()
}

// TestColumnarComputeByteIdentical is the trace-construction
// equivalence proof: one study's traces, built from its collected
// records (Study.DataSet transposes them) and loaded from its saved
// segments (scanned without ever materializing rows), recomputed at
// every compute worker count, must render every table, figure and
// section byte-identically through the one kernel set. Each (source,
// workers) pass builds or reloads its traces so no lazily derived state
// carries over between passes.
func TestColumnarComputeByteIdentical(t *testing.T) {
	st := NewStudy(Config{
		Seed: 29, Machines: 6, Duration: 30 * sim.Minute,
		WithNetwork: true, Workers: 8,
	})
	if err := st.Run(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := st.Save(dir); err != nil {
		t.Fatal(err)
	}

	var want string
	for _, source := range []struct {
		name string
		load func() (*analysis.DataSet, error)
	}{
		{"records", st.DataSet},
		{"segments", func() (*analysis.DataSet, error) {
			c, err := LoadCorpusTrace(dir, nil, nil)
			if err != nil {
				return nil, err
			}
			if len(c.Segments) != len(c.DS.Machines) {
				return nil, fmt.Errorf("loaded %d segments for %d machines", len(c.Segments), len(c.DS.Machines))
			}
			return c.DS, nil
		}},
	} {
		for _, workers := range []int{1, 4, 8} {
			ds, err := source.load()
			if err != nil {
				t.Fatal(err)
			}
			got := renderEverything(report.ComputeWorkers(ds, workers))
			if got == "" {
				t.Fatalf("%s traces rendered an empty report", source.name)
			}
			if want == "" {
				want = got
			} else if got != want {
				t.Fatalf("%s traces at %d compute workers rendered a different report", source.name, workers)
			}
		}
	}
}
