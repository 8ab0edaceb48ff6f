package collect

import (
	"encoding/json"
	"errors"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
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

// TestFinalizeDropsCompressor checks that a sealed stream keeps no DEFLATE
// writer and holds its bytes at their exact length, whether
// FinalizeMachine or Finalize sealed it, that Append on it still fails,
// and that its records read back.
func TestFinalizeDropsCompressor(t *testing.T) {
	s := NewStore()
	s.Append("a", mkRecs(10, 1))
	s.Append("b", mkRecs(1000, 2))
	if err := s.FinalizeMachine("a"); err != nil {
		t.Fatal(err)
	}
	if s.streams["a"].zw != nil || s.streams["b"].zw == nil {
		t.Fatalf("after FinalizeMachine(a): a holds a compressor %v, b %v", s.streams["a"].zw != nil, s.streams["b"].zw != nil)
	}
	if err := s.Append("a", mkRecs(1, 3)); err == nil {
		t.Error("append to a finalized stream succeeded")
	}
	if err := s.Finalize(); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]int{"a": 10, "b": 1000} {
		st := s.streams[name]
		if st.zw != nil {
			t.Errorf("%s holds a compressor after Finalize", name)
		}
		if st.buf.Cap() != st.buf.Len() {
			t.Errorf("%s holds %d bytes in %d of capacity after Finalize", name, st.buf.Len(), st.buf.Cap())
		}
		if err := s.Append(name, mkRecs(1, 4)); err == nil {
			t.Errorf("append to finalized %s succeeded", name)
		}
		if recs, err := s.Records(name); err != nil || len(recs) != want {
			t.Errorf("%s: %d records, err %v", name, len(recs), err)
		}
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

func TestSaveDirNameCollisions(t *testing.T) {
	// "pool/01", "pool:01" and "pool_01" all flatten to "pool_01"; a
	// corpus keeps all three segments instead of silently overwriting.
	s := NewStore()
	s.Append("pool/01", mkRecs(10, 1))
	s.Append("pool:01", mkRecs(20, 2))
	s.Append("pool_01", mkRecs(30, 3))
	if err := s.Finalize(); err != nil {
		t.Fatal(err)
	}
	var saved [2][]string
	for i := range saved {
		dir := t.TempDir()
		if _, err := s.SaveColumnarDir(dir, colstore.Options{}); err != nil {
			t.Fatal(err)
		}
		segs, err := LoadColumnarDir(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		recs := 0
		for _, seg := range segs {
			recs += seg.Records()
		}
		if len(segs) != 3 || recs != 60 {
			t.Fatalf("loaded %d segments with %d records, want 3 with 60", len(segs), recs)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			saved[i] = append(saved[i], e.Name())
		}
	}
	// The flattening is deterministic: saving twice yields the same files.
	if !slices.Equal(saved[0], saved[1]) {
		t.Fatalf("non-deterministic file names: %v vs %v", saved[0], saved[1])
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
// one flattened stem must round-trip exactly, via the stem manifest
// written beside the segments.
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

// TestLoadDirManifestMismatch pins the fail-closed contract: a segment
// whose stem the manifest does not list is a typed error, not a silently
// stem-named machine.
func TestLoadDirManifestMismatch(t *testing.T) {
	dir := t.TempDir()
	s := NewStore()
	s.Append("alpha", mkRecs(5, 1))
	if err := s.Finalize(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SaveColumnarDir(dir, colstore.Options{}); err != nil {
		t.Fatal(err)
	}
	// A stray segment from some other corpus appears in the directory.
	data, err := os.ReadFile(filepath.Join(dir, "alpha.fsc"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "stray.fsc"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadColumnarDir(dir, nil); !errors.Is(err, ErrManifestMismatch) || !strings.Contains(err.Error(), "stray.fsc") {
		t.Errorf("LoadColumnarDir with stray segment: err = %v, want ErrManifestMismatch naming stray.fsc", err)
	}
}

// TestLoadDirLegacyNoManifest pins that a corpus saved before the stem
// manifest existed fails to load, naming the manifest, instead of
// loading its machines under their flattened file stems.
func TestLoadDirLegacyNoManifest(t *testing.T) {
	dir := t.TempDir()
	s := NewStore()
	s.Append("node/a", mkRecs(5, 1))
	if err := s.Finalize(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SaveColumnarDir(dir, colstore.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, StemManifestName)); err != nil {
		t.Fatal(err)
	}
	segs, err := LoadColumnarDir(dir, nil)
	if err == nil || !strings.Contains(err.Error(), StemManifestName) {
		t.Errorf("load without %s: segments %v, err = %v, want an error naming it", StemManifestName, segs, err)
	}
}

// manifestCorpus saves segments a (5 records), b (7) and c (9) into a
// new directory and returns it.
func manifestCorpus(t testing.TB) string {
	t.Helper()
	s := NewStore()
	for i, name := range []string{"a", "b", "c"} {
		if err := s.Append(name, mkRecs(5+2*i, uint64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Finalize(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := s.SaveColumnarDir(dir, colstore.Options{}); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestLoadRejectsBadStemManifest pins that a manifest SaveColumnarDir
// could not have written fails the load: before, one listing two stems
// under one name loaded a single machine holding the second segment.
func TestLoadRejectsBadStemManifest(t *testing.T) {
	dir := manifestCorpus(t)
	for what, man := range map[string]string{
		"repeated name": `{"version":1,"stems":{"a":"x","b":"x","c":"y"}}`,
		"version 7":     `{"version":7,"stems":{"a":"a","b":"b","c":"c"}}`,
		"no version":    `{"stems":{"a":"a","b":"b","c":"c"}}`,
		"null":          `null`,
		"empty name":    `{"version":1,"stems":{"a":"","b":"b","c":"c"}}`,
		"stems a list":  `{"version":1,"stems":["a","b","c"]}`,
	} {
		if err := os.WriteFile(filepath.Join(dir, StemManifestName), []byte(man), 0o644); err != nil {
			t.Fatal(err)
		}
		if segs, err := LoadColumnarDir(dir, nil); err == nil || !strings.Contains(err.Error(), StemManifestName) {
			t.Errorf("%s: loaded %d machines, err = %v, want an error naming %s", what, len(segs), err, StemManifestName)
		}
	}
}

// TestSaveRefusesEmptyName pins that the writer refuses, before writing
// anything, the machine name the manifest reader refuses.
func TestSaveRefusesEmptyName(t *testing.T) {
	s := NewStore()
	s.Append("", mkRecs(5, 1))
	s.Append("b", mkRecs(5, 2))
	if err := s.Finalize(); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "corpus")
	if _, err := s.SaveColumnarDir(dir, colstore.Options{}); err == nil {
		t.Error("saved a machine with an empty name")
	}
	if _, err := os.Stat(dir); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("refused save created %s (%v)", dir, err)
	}
}

// FuzzStemManifest feeds segmentNames arbitrary manifest bytes over the
// fixed segment stems a, b and c. Every input must fail or give each
// segment its own listed name: three distinct, non-empty names, each the
// one the manifest lists for that stem.
func FuzzStemManifest(f *testing.F) {
	data, err := os.ReadFile(filepath.Join(manifestCorpus(f), StemManifestName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add([]byte(`{"version":1,"stems":{"a":"x","b":"x","c":"y"}}`))
	f.Add([]byte(`{"version":1,"stems":{"a":"pool/01","b":"pool:01","c":"pool_01","d":"gone"}}`))
	f.Add([]byte(`null`))
	stems := []string{"a", "b", "c"}
	f.Fuzz(func(t *testing.T, in []byte) {
		names, err := segmentNames(in, stems)
		if err != nil {
			return
		}
		var listed struct{ Stems map[string]string }
		if err := json.Unmarshal(in, &listed); err != nil {
			t.Fatalf("accepted a manifest that does not parse: %v", err)
		}
		seen := map[string]bool{}
		for _, stem := range stems {
			name := names[stem]
			if name == "" || seen[name] || name != listed.Stems[stem] {
				t.Fatalf("stem %q loads as %q (listed %q); names so far %v", stem, name, listed.Stems[stem], seen)
			}
			seen[name] = true
		}
		if len(listed.Stems) != len(stems) {
			t.Fatalf("accepted a manifest listing %d stems over %d segments", len(listed.Stems), len(stems))
		}
	})
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
