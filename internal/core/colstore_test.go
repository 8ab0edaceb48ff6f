package core

import (
	"compress/flate"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/collect"
	"repro/internal/colstore"
	"repro/internal/report"
	"repro/internal/sim"
)

// colstoreConfig is the shared small fleet of the columnar tests.
func colstoreConfig(workers int, columnar bool) Config {
	return Config{
		Seed:            23,
		Machines:        6,
		Duration:        sim.Hour,
		WithNetwork:     true,
		SnapshotAtStart: true,
		Workers:         workers,
		Columnar:        columnar,
	}
}

func renderReport(t *testing.T, res *report.Results) string {
	t.Helper()
	return res.Table1() + res.Table2() + res.Table3() + res.Section8() + res.Section9()
}

// rowStreamDigest inflates one saved .trz file and digests its logical
// record bytes — the row-side half of the equivalence proof.
func rowStreamDigest(t *testing.T, path string) [sha256.Size]byte {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr := flate.NewReader(f)
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
// the same seed studied through the row corpus and through the columnar
// corpus must render byte-identical reports, and each machine's columnar
// segment must carry the SHA-256 of exactly the bytes its row stream
// inflates to — at every worker count the fleet engine supports.
func TestColstoreStudyByteIdentical(t *testing.T) {
	var wantReport string
	var wantSums map[string][sha256.Size]byte
	for _, workers := range []int{1, 4, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			rowDir, colDir := t.TempDir(), t.TempDir()

			rowStudy := NewStudy(colstoreConfig(workers, false))
			if err := rowStudy.Run(); err != nil {
				t.Fatal(err)
			}
			if err := rowStudy.Save(rowDir); err != nil {
				t.Fatal(err)
			}

			colStudy := NewStudy(colstoreConfig(workers, true))
			if err := colStudy.Run(); err != nil {
				t.Fatal(err)
			}
			if err := colStudy.Save(colDir); err != nil {
				t.Fatal(err)
			}

			// The two directories hold different layouts of one corpus.
			rowDS, _, err := Load(rowDir)
			if err != nil {
				t.Fatal(err)
			}
			colDS, _, err := Load(colDir)
			if err != nil {
				t.Fatal(err)
			}
			rowReport := renderReport(t, report.Compute(rowDS))
			colReport := renderReport(t, report.Compute(colDS))
			if rowReport != colReport {
				t.Fatal("row and columnar corpora rendered different reports")
			}
			if wantReport == "" {
				wantReport = rowReport
			} else if rowReport != wantReport {
				t.Fatalf("report diverged at %d workers", workers)
			}

			// Per-machine digest equivalence: segment footer == inflated
			// row stream bytes.
			segs, err := collect.LoadColumnarDir(colDir, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(segs) == 0 {
				t.Fatal("columnar save produced no segments")
			}
			sums := map[string][sha256.Size]byte{}
			for name, seg := range segs {
				rowPath := filepath.Join(rowDir, name+".trz")
				if got, want := seg.SHA256(), rowStreamDigest(t, rowPath); got != want {
					t.Errorf("%s: segment digest %x != row stream digest %x", name, got, want)
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

// TestColstoreLoadPrefersSegments pins the fallback order: a directory
// holding both layouts loads through the columnar path, and the loaded
// corpus equals the row-only load record for record.
func TestColstoreLoadPrefersSegments(t *testing.T) {
	dir := t.TempDir()
	s := NewStudy(colstoreConfig(2, false))
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	rowDS, _, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Add segments beside the row streams; loads must now go columnar.
	if _, err := s.Store.SaveColumnarDir(dir, colstore.Options{}, nil); err != nil {
		t.Fatal(err)
	}
	bothDS, _, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(bothDS.Machines) != len(rowDS.Machines) {
		t.Fatalf("mixed-layout load found %d machines, row load %d", len(bothDS.Machines), len(rowDS.Machines))
	}
	for i, mt := range bothDS.Machines {
		rmt := rowDS.Machines[i]
		rows, rrows := mt.Rows(), rmt.Rows()
		if mt.Name != rmt.Name || len(rows) != len(rrows) {
			t.Fatalf("machine %d: %s/%d records vs %s/%d", i, mt.Name, len(rows), rmt.Name, len(rrows))
		}
		for j := range rows {
			if rows[j] != rrows[j] {
				t.Fatalf("%s: record %d differs between layouts", mt.Name, j)
			}
		}
		if mt.Index().KindCount(0) != rmt.Index().KindCount(0) {
			t.Fatalf("%s: pre-seeded index disagrees with rebuilt index", mt.Name)
		}
	}
}

// TestColstoreCheckpointResume pins the checkpointed-segment path: a
// columnar study resumed from checkpoints saves segments identical to an
// uninterrupted run's, without re-encoding (the restored bytes are
// written verbatim).
func TestColstoreCheckpointResume(t *testing.T) {
	ckpt := t.TempDir()
	cfg := colstoreConfig(2, true)
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

	entries, err := os.ReadDir(oneDir)
	if err != nil {
		t.Fatal(err)
	}
	segFiles := 0
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), collect.ColumnarExt) {
			continue
		}
		segFiles++
		a, err := os.ReadFile(filepath.Join(oneDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(twoDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Errorf("%s: resumed save differs from uninterrupted save", e.Name())
		}
	}
	if segFiles == 0 {
		t.Fatal("columnar study saved no segments")
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

// TestColumnarComputeByteIdentical is the layout-equivalence proof: one
// corpus saved in both layouts, recomputed at every compute worker
// count, must render every table, figure and section byte-identically
// through the one kernel set. The row layout reaches it by transposing
// decoded records, the columnar layout by scanning segments without
// ever materializing rows. Each (layout, workers) pass reloads the
// directory so no lazily derived state carries over between passes.
func TestColumnarComputeByteIdentical(t *testing.T) {
	st := NewStudy(Config{
		Seed: 29, Machines: 6, Duration: 30 * sim.Minute,
		WithNetwork: true, Workers: 8,
	})
	if err := st.Run(); err != nil {
		t.Fatal(err)
	}
	rowDir, colDir := t.TempDir(), t.TempDir()
	if err := st.Save(rowDir); err != nil {
		t.Fatal(err)
	}
	st.Cfg.Columnar = true
	if err := st.Save(colDir); err != nil {
		t.Fatal(err)
	}

	var want string
	for _, layout := range []struct {
		name     string
		dir      string
		columnar bool
	}{
		{"row", rowDir, false},
		{"columnar", colDir, true},
	} {
		for _, workers := range []int{1, 4, 8} {
			c, err := LoadCorpus(layout.dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			if layout.columnar && len(c.Segments) != len(c.DS.Machines) {
				t.Fatalf("columnar layout loaded %d segments for %d machines", len(c.Segments), len(c.DS.Machines))
			}
			if !layout.columnar && len(c.Segments) != 0 {
				t.Fatalf("row layout loaded %d segments, want 0", len(c.Segments))
			}
			got := renderEverything(report.ComputeWorkers(c.DS, workers))
			if got == "" {
				t.Fatalf("%s layout rendered an empty report", layout.name)
			}
			if want == "" {
				want = got
			} else if got != want {
				t.Fatalf("%s layout at %d compute workers rendered a different report", layout.name, workers)
			}
		}
	}
}
