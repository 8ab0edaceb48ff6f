package collect

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/colstore"
	"repro/internal/ntos/types"
	"repro/internal/sim"
	"repro/internal/tracefmt"
)

func mkRecs(n int, fid uint64) []tracefmt.Record {
	recs := make([]tracefmt.Record, n)
	for i := range recs {
		recs[i] = tracefmt.Record{
			Kind:   tracefmt.EvRead,
			FileID: types.FileObjectID(fid),
			Proc:   uint32(i),
			Start:  sim.Time(i * 10),
			End:    sim.Time(i*10 + 5),
		}
	}
	return recs
}

func TestStoreRoundTrip(t *testing.T) {
	s := NewStore()
	if err := s.Append("m1", mkRecs(500, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Append("m1", mkRecs(300, 2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Append("m2", mkRecs(100, 3)); err != nil {
		t.Fatal(err)
	}
	if err := s.Finalize(); err != nil {
		t.Fatal(err)
	}
	if got := s.Machines(); len(got) != 2 || got[0] != "m1" || got[1] != "m2" {
		t.Fatalf("Machines = %v", got)
	}
	if s.RecordCount("m1") != 800 || s.TotalRecords() != 900 {
		t.Errorf("counts: m1=%d total=%d", s.RecordCount("m1"), s.TotalRecords())
	}
	recs, err := s.Records("m1")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 800 {
		t.Fatalf("decoded %d records", len(recs))
	}
	if recs[0].FileID != 1 || recs[500].FileID != 2 {
		t.Error("record order lost")
	}
	if s.CompressedBytes() <= 0 {
		t.Error("no compressed bytes reported")
	}
	// Compression must actually compress these repetitive records.
	raw := int64(900 * tracefmt.RecordSize)
	if s.CompressedBytes() >= raw {
		t.Errorf("compressed %d >= raw %d", s.CompressedBytes(), raw)
	}
}

func TestStoreAppendAfterFinalize(t *testing.T) {
	s := NewStore()
	s.Append("m", mkRecs(10, 1))
	s.Finalize()
	if err := s.Append("m", mkRecs(10, 2)); err == nil {
		t.Error("append after finalize succeeded")
	}
}

func TestStoreRecordsBeforeFinalize(t *testing.T) {
	s := NewStore()
	s.Append("m", mkRecs(10, 1))
	if _, err := s.Records("m"); err == nil {
		t.Error("Records before finalize succeeded")
	}
	if _, err := s.Records("nosuch"); err == nil {
		t.Error("Records for unknown machine succeeded")
	}
}

// saveRowDir writes each finalized stream as <dir>/<stem>.trz with the
// stem manifest beside them: the legacy row layout that LoadDir reads.
// The program no longer writes it, so the tests write it themselves;
// TestSaveRowDirMatchesLegacyWriter pins the bytes to those of the
// removed writer.
func saveRowDir(t *testing.T, s *Store, dir string) {
	t.Helper()
	stems := s.fileStems()
	for _, mf := range stems {
		data, _, err := s.ExportStream(mf.machine)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, mf.stem+".trz"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := writeStemManifest(dir, stems); err != nil {
		t.Fatal(err)
	}
}

// dirDigest is the SHA-256 over a directory's files in name order: each
// file's name, a zero byte, its length (u64, little-endian) and its bytes.
func dirDigest(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, e := range entries { // ReadDir sorts by name
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		h.Write([]byte(e.Name()))
		h.Write([]byte{0})
		binary.Write(h, binary.LittleEndian, uint64(len(data)))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSaveRowDirMatchesLegacyWriter pins saveRowDir's output, stream
// files and stem manifest, to the digest that the program's own row
// writer (Store.SaveDir, since removed) gave for the same store: the
// legacy corpora the tests build are the ones the program used to save.
func TestSaveRowDirMatchesLegacyWriter(t *testing.T) {
	const legacy = "7cfdf6892b4f216ca7de089453ef07271bd24b7805ea1fb96a2b40d4ed494116"
	s := NewStore()
	for i, m := range []struct {
		name string
		n    int
	}{{"pool/01", 10}, {"pool:01", 20}, {"pool_01", 30}, {"lab\\win\\nt-07", 40}, {"plain-node", 50}} {
		if err := s.Append(m.name, mkRecs(m.n, uint64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Finalize(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	saveRowDir(t, s, dir)
	if got := dirDigest(t, dir); got != legacy {
		t.Errorf("row directory digest %s, want %s", got, legacy)
	}
}

func TestStoreSaveLoadDir(t *testing.T) {
	dir := t.TempDir()
	s := NewStore()
	s.Append("alpha", mkRecs(250, 7))
	s.Append("beta-2", mkRecs(50, 8))
	if err := s.Finalize(); err != nil {
		t.Fatal(err)
	}
	saveRowDir(t, s, dir)
	loaded, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.TotalRecords() != 300 {
		t.Errorf("loaded %d records", loaded.TotalRecords())
	}
	recs, err := loaded.Records("alpha")
	if err != nil || len(recs) != 250 {
		t.Fatalf("alpha: %d records, err=%v", len(recs), err)
	}
	if recs[0].FileID != 7 {
		t.Error("loaded record corrupt")
	}
}

func TestSaveDirNameCollisions(t *testing.T) {
	// "pool/01", "pool:01" and "pool_01" all flatten to "pool_01"; a row
	// corpus keeps all three streams instead of silently overwriting.
	dir := t.TempDir()
	s := NewStore()
	s.Append("pool/01", mkRecs(10, 1))
	s.Append("pool:01", mkRecs(20, 2))
	s.Append("pool_01", mkRecs(30, 3))
	if err := s.Finalize(); err != nil {
		t.Fatal(err)
	}
	saveRowDir(t, s, dir)
	loaded, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(loaded.Machines()); got != 3 {
		t.Fatalf("loaded %d streams (%v), want 3", got, loaded.Machines())
	}
	if loaded.TotalRecords() != 60 {
		t.Fatalf("loaded %d records, want 60", loaded.TotalRecords())
	}
	// The flattening is deterministic: saving twice yields the same names.
	dir2 := t.TempDir()
	saveRowDir(t, s, dir2)
	loaded2, err := LoadDir(dir2)
	if err != nil {
		t.Fatal(err)
	}
	m1, m2 := loaded.Machines(), loaded2.Machines()
	for i := range m1 {
		if m1[i] != m2[i] {
			t.Fatalf("non-deterministic names: %v vs %v", m1, m2)
		}
	}
}

func TestNetworkTransport(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	store := NewStore()
	srv := Serve(ln, store)

	c1, err := Dial(srv.Addr(), "node-01")
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Dial(srv.Addr(), "node-02")
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Send(mkRecs(3000, 1)); err != nil {
		t.Fatal(err)
	}
	if err := c2.Send(mkRecs(100, 2)); err != nil {
		t.Fatal(err)
	}
	if err := c1.Send(mkRecs(500, 3)); err != nil {
		t.Fatal(err)
	}
	c1.Close()
	c2.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	for _, e := range srv.Errors() {
		t.Errorf("server error: %v", e)
	}
	if err := store.Finalize(); err != nil {
		t.Fatal(err)
	}
	if store.RecordCount("node-01") != 3500 || store.RecordCount("node-02") != 100 {
		t.Errorf("counts: %d / %d", store.RecordCount("node-01"), store.RecordCount("node-02"))
	}
	recs, err := store.Records("node-01")
	if err != nil || len(recs) != 3500 {
		t.Fatalf("node-01 decode: %d, %v", len(recs), err)
	}
}

func TestServerRejectsBadMagic(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	store := NewStore()
	srv := Serve(ln, store)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	conn.Write([]byte("BADMAGIC........"))
	conn.Close()
	srv.Close()
	if len(srv.Errors()) == 0 {
		t.Error("bad magic not reported")
	}
	if store.TotalRecords() != 0 {
		t.Error("records stored from bad stream")
	}
}

func TestRecordsNoRecordsSentinel(t *testing.T) {
	s := NewStore()
	s.Append("m", mkRecs(10, 1))
	s.Finalize()
	_, err := s.Records("ghost")
	if !errors.Is(err, ErrNoRecords) {
		t.Errorf("Records(ghost) = %v, want ErrNoRecords", err)
	}
	// A state error (unfinalized stream) must NOT read as "no records":
	// callers distinguish an empty machine from a broken store.
	s2 := NewStore()
	s2.Append("m", mkRecs(10, 1))
	if _, err := s2.Records("m"); err == nil || errors.Is(err, ErrNoRecords) {
		t.Errorf("Records before finalize = %v, want a non-sentinel error", err)
	}
}

func TestExportImportRoundTrip(t *testing.T) {
	s := NewStore()
	s.Append("m", mkRecs(400, 5))
	s.Finalize()
	data, count, err := s.ExportStream("m")
	if err != nil || count != 400 {
		t.Fatalf("ExportStream: count=%d err=%v", count, err)
	}
	want, err := s.StreamSum("m")
	if err != nil {
		t.Fatal(err)
	}

	dst := NewStore()
	if err := dst.ImportStream("m", data, count); err != nil {
		t.Fatal(err)
	}
	if got, _ := dst.StreamSum("m"); got != want {
		t.Error("imported stream hash differs")
	}
	recs, err := dst.Records("m")
	if err != nil || len(recs) != 400 {
		t.Fatalf("imported records: %d, err=%v", len(recs), err)
	}
	if recs[0].FileID != 5 {
		t.Error("imported record corrupt")
	}
	if err := dst.ImportStream("m", data, count); err == nil {
		t.Error("import over an existing stream succeeded")
	}
	if err := dst.ImportStream("empty", nil, 0); err != nil {
		t.Errorf("empty import: %v", err)
	}
	if dst.RecordCount("empty") != 0 {
		t.Error("empty import created a stream")
	}
	if _, _, err := NewStore().ExportStream("m"); !errors.Is(err, ErrNoRecords) {
		t.Errorf("ExportStream of unknown machine = %v, want ErrNoRecords", err)
	}
}

func TestFinalizeMachine(t *testing.T) {
	s := NewStore()
	s.Append("a", mkRecs(20, 1))
	s.Append("b", mkRecs(30, 2))
	if err := s.FinalizeMachine("a"); err != nil {
		t.Fatal(err)
	}
	// a is readable while b still accepts appends.
	if recs, err := s.Records("a"); err != nil || len(recs) != 20 {
		t.Fatalf("a after FinalizeMachine: %d, err=%v", len(recs), err)
	}
	if err := s.Append("b", mkRecs(10, 3)); err != nil {
		t.Errorf("append to b after finalizing a: %v", err)
	}
	if err := s.Append("a", mkRecs(10, 4)); err == nil {
		t.Error("append to finalized a succeeded")
	}
	if err := s.FinalizeMachine("a"); err != nil {
		t.Errorf("re-finalize: %v", err)
	}
	if err := s.FinalizeMachine("ghost"); err != nil {
		t.Errorf("finalize of absent machine: %v", err)
	}
	if err := s.Finalize(); err != nil {
		t.Fatal(err)
	}
	if recs, _ := s.Records("b"); len(recs) != 40 {
		t.Errorf("b: %d records", len(recs))
	}
}

// TestSaveLoadDirExactNames pins the Save→Load rename fix: machine names
// that SafeName rewrites (path separators, colons) or that collide onto
// one flattened stem must round-trip exactly through both corpus
// layouts, via the stem manifest written beside the streams.
func TestSaveLoadDirExactNames(t *testing.T) {
	names := map[string]int{
		"pool/01":         10, // rewritten: '/' → '_'
		"pool:01":         20, // rewritten, collides with pool/01 and pool_01
		"pool_01":         30, // already safe, collides
		"lab\\win\\nt-07": 40, // backslashes rewritten
		"plain-node":      50, // untouched by SafeName
	}
	s := NewStore()
	fid := uint64(1)
	for name, n := range names {
		if err := s.Append(name, mkRecs(n, fid)); err != nil {
			t.Fatal(err)
		}
		fid++
	}
	if err := s.Finalize(); err != nil {
		t.Fatal(err)
	}

	check := func(t *testing.T, got []string, counts func(string) int) {
		t.Helper()
		if len(got) != len(names) {
			t.Fatalf("loaded machines %v, want the %d original names", got, len(names))
		}
		for _, name := range got {
			want, ok := names[name]
			if !ok {
				t.Errorf("loaded machine %q is not an original name", name)
				continue
			}
			if n := counts(name); n != want {
				t.Errorf("machine %q: %d records, want %d", name, n, want)
			}
		}
	}

	t.Run("row", func(t *testing.T) {
		dir := t.TempDir()
		saveRowDir(t, s, dir)
		loaded, err := LoadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		check(t, loaded.Machines(), loaded.RecordCount)
	})

	t.Run("columnar", func(t *testing.T) {
		dir := t.TempDir()
		if _, err := s.SaveColumnarDir(dir, colstore.Options{}); err != nil {
			t.Fatal(err)
		}
		segs, err := LoadColumnarDir(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]string, 0, len(segs))
		for name := range segs {
			got = append(got, name)
		}
		check(t, got, func(name string) int { return segs[name].Records() })
	})
}

// TestLoadDirManifestMismatch pins the fail-closed contract: a stream
// file whose stem the manifest does not list is a typed error, not a
// silently stem-named machine.
func TestLoadDirManifestMismatch(t *testing.T) {
	dir := t.TempDir()
	s := NewStore()
	s.Append("alpha", mkRecs(5, 1))
	if err := s.Finalize(); err != nil {
		t.Fatal(err)
	}
	saveRowDir(t, s, dir)
	if _, err := s.SaveColumnarDir(dir, colstore.Options{}); err != nil {
		t.Fatal(err)
	}
	// A stray stream from some other corpus appears in the directory.
	for _, stray := range []string{"stray.trz", "stray.fsc"} {
		src := "alpha.trz"
		if stray == "stray.fsc" {
			src = "alpha.fsc"
		}
		data, err := os.ReadFile(filepath.Join(dir, src))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, stray), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := LoadDir(dir); !errors.Is(err, ErrManifestMismatch) {
		t.Errorf("LoadDir with stray stream: err = %v, want ErrManifestMismatch", err)
	}
	if _, err := LoadColumnarDir(dir, nil); !errors.Is(err, ErrManifestMismatch) {
		t.Errorf("LoadColumnarDir with stray segment: err = %v, want ErrManifestMismatch", err)
	}
}

// TestLoadDirLegacyNoManifest pins backward compatibility: a corpus
// saved before the stem manifest existed loads with stem names.
func TestLoadDirLegacyNoManifest(t *testing.T) {
	dir := t.TempDir()
	s := NewStore()
	s.Append("node/a", mkRecs(5, 1))
	if err := s.Finalize(); err != nil {
		t.Fatal(err)
	}
	saveRowDir(t, s, dir)
	if err := os.Remove(filepath.Join(dir, StemManifestName)); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := loaded.Machines(); len(got) != 1 || got[0] != "node_a" {
		t.Errorf("legacy load machines = %v, want [node_a]", got)
	}
}

// TestSaveColumnarDirFirstError puts a directory where two segments are
// to be written: at any GOMAXPROCS the error names the first machine in
// stem order, where a serial save stops, and no stem manifest is written.
func TestSaveColumnarDirFirstError(t *testing.T) {
	s := NewStore()
	for i, name := range []string{"m0", "m1", "m2", "m3", "m4"} {
		if err := s.Append(name, mkRecs(10+i, uint64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Finalize(); err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 4} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			dir := t.TempDir()
			for _, blocked := range []string{"m4", "m1"} {
				if err := os.Mkdir(filepath.Join(dir, blocked+ColumnarExt), 0o755); err != nil {
					t.Fatal(err)
				}
			}
			_, err := s.SaveColumnarDir(dir, colstore.Options{})
			if err == nil || !strings.Contains(err.Error(), "m1"+ColumnarExt) {
				t.Errorf("GOMAXPROCS=%d: error %v, want one naming m1%s", procs, err, ColumnarExt)
			}
			if _, err := os.Stat(filepath.Join(dir, StemManifestName)); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("GOMAXPROCS=%d: failed save wrote %s (%v)", procs, StemManifestName, err)
			}
		}()
	}
}
