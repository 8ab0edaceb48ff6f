package core

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/collect"
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

// TestColstoreLoadPrefersSegments pins that the loader reads segments
// and never row streams: a corpus holding a legacy *.trz beside every
// segment, as an earlier build's fscorpus convert left it, loads exactly
// as the study's own save does; with the segments removed, the rows
// alone fail the load with ErrManifestMismatch naming the first missing
// segment, instead of being read or leaving their machines out.
func TestColstoreLoadPrefersSegments(t *testing.T) {
	s := NewStudy(colstoreConfig(2))
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	ownDir, dir := t.TempDir(), t.TempDir()
	for _, d := range []string{ownDir, dir} {
		if err := s.Save(d); err != nil {
			t.Fatal(err)
		}
	}
	machines := s.Store.Machines()
	for _, name := range machines {
		data, _, err := s.Store.ExportStream(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, safe(name)+".trz"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	own, err := LoadCorpusTrace(ownDir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	both, err := LoadCorpusTrace(dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(viewCorpus(t, both), viewCorpus(t, own)) {
		t.Error("corpus with row streams beside its segments loads unlike the study's own save")
	}

	for _, name := range machines {
		if err := os.Remove(filepath.Join(dir, safe(name)+collect.ColumnarExt)); err != nil {
			t.Fatal(err)
		}
	}
	want := safe(machines[0]) + collect.ColumnarExt
	c, err := LoadCorpusTrace(dir, nil, nil)
	if !errors.Is(err, collect.ErrManifestMismatch) || !strings.Contains(err.Error(), want) {
		t.Fatalf("row-only corpus: loaded %v, err = %v, want ErrManifestMismatch naming %s", c != nil, err, want)
	}
}

// TestColstoreCheckpointResume pins resume through the one saved layout:
// a study restored from checkpoints (each holding a machine's stream and
// snapshots) saves a directory byte-identical to the uninterrupted
// run's: segments, snapshots (a restored one writes the bytes it was
// read from) and both manifests; and its restored snapshots render §5
// as the taken ones do.
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
	var built builtNodes
	cfg.Prepare = built.prepare
	two := NewStudy(cfg)
	if restored := two.Engine.Status().Restored; restored != cfg.Machines {
		t.Fatalf("resume restored %d of %d machines", restored, cfg.Machines)
	}
	if err := two.Run(); err != nil {
		t.Fatal(err)
	}
	if len(built.nodes) != 0 {
		t.Errorf("a fully restored study built %d machines", len(built.nodes))
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
	r := &report.Results{}
	taken, errTaken := r.RenderSection5(one.Snapshots)
	restoredS5, errRestored := r.RenderSection5(two.Snapshots)
	if errTaken != nil || errRestored != nil || restoredS5 != taken {
		t.Errorf("§5 from restored snapshots (err %v) differs from the taken ones' (err %v):\n%s\nvs\n%s", errRestored, errTaken, restoredS5, taken)
	}
}

// renderEverything concatenates every report section except the cache
// sweep (a replay simulation, not a compute kernel) — the full
// observable output the vectorized kernels must reproduce. §5 reads
// snapshots, not traces, so it renders without them.
func renderEverything(t *testing.T, r *report.Results) string {
	t.Helper()
	var b strings.Builder
	for _, s := range report.Sections {
		if s.Name == "cachesweep" {
			continue
		}
		text, err := s.Render(r, nil)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		b.WriteString(text)
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
			got := renderEverything(t, report.ComputeWorkers(ds, workers))
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
