package query

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/collect"
	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/ntos/types"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/tracefmt"
)

// The package's tests share one small study, saved once.
var (
	studyOnce sync.Once
	study     *core.Study
	ownDir    string
	studyErr  error
)

func corpusDir(t *testing.T) string {
	t.Helper()
	studyOnce.Do(func() {
		study = core.NewStudy(core.Config{
			Seed:        7,
			Machines:    4,
			Duration:    30 * sim.Minute,
			WithNetwork: true,
		})
		if studyErr = study.Run(); studyErr != nil {
			return
		}
		if ownDir, studyErr = mkTempDir(); studyErr != nil {
			return
		}
		studyErr = study.Save(ownDir)
	})
	if studyErr != nil {
		t.Fatal(studyErr)
	}
	return ownDir
}

// legacyCopy copies the corpus in src to a new directory, replacing the
// segments of the machines in rows by their legacy row streams
// (<name>.trz), the layout the program saved before segments became its
// only one. Study machine names are already safe file stems, so the
// stem manifest still lists each row stream's stem.
func legacyCopy(s *core.Study, src string, rows []string) (string, error) {
	dst, err := mkTempDir()
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return "", err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return "", err
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return "", err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return "", err
		}
	}
	for _, name := range rows {
		data, _, err := s.Store.ExportStream(name)
		if err != nil {
			return "", err
		}
		if err := os.WriteFile(filepath.Join(dst, name+".trz"), data, 0o644); err != nil {
			return "", err
		}
		if err := os.Remove(filepath.Join(dst, name+collect.ColumnarExt)); err != nil {
			return "", err
		}
	}
	return dst, nil
}

var tempSeq int

// mkTempDir names a new corpus directory under a root that outlives any
// single test, since the saved study is shared package-wide.
func mkTempDir() (string, error) {
	tempSeq++
	return fmt.Sprintf("%s/query-corpus-%d", testTempRoot, tempSeq), nil
}

var testTempRoot string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "query-test-")
	if err != nil {
		panic(err)
	}
	testTempRoot = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func newTestService(t *testing.T, dir string, cfg Config) (*Service, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	if cfg.Obs == nil {
		cfg.Obs = reg
	} else {
		reg = cfg.Obs
	}
	c, err := OpenCorpusTrace(dir, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return NewService(c, cfg), reg
}

func get(t *testing.T, h http.Handler, path string) (int, http.Header, []byte) {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	body, _ := io.ReadAll(rec.Result().Body)
	return rec.Code, rec.Result().Header, body
}

const scanPath = "/v1/scan?kinds=Read,Write,Create,Close&cols=kind,start,length,proc&min_h=0&max_h=24&limit=50"

// TestQueryDeterministic is the tentpole acceptance test: the same
// query answers with byte-identical bodies cold, cached, and at every
// worker count.
func TestQueryDeterministic(t *testing.T) {
	dir := corpusDir(t)
	paths := []string{
		scanPath,
		"/v1/scan?limit=25",
		"/v1/report?artifact=table2",
		"/v1/report?artifact=section8",
		"/v1/machines",
	}
	var want map[string][]byte
	for _, workers := range []int{1, 4, 8} {
		svc, reg := newTestService(t, dir, Config{Workers: workers})
		h := svc.Handler()
		got := map[string][]byte{}
		for _, p := range paths {
			code, _, cold := get(t, h, p)
			if code != http.StatusOK {
				t.Fatalf("workers=%d %s: status %d: %s", workers, p, code, cold)
			}
			code, _, cached := get(t, h, p)
			if code != http.StatusOK {
				t.Fatalf("workers=%d %s cached: status %d", workers, p, code)
			}
			if !bytes.Equal(cold, cached) {
				t.Fatalf("workers=%d %s: cached body differs from cold body", workers, p)
			}
			got[p] = cold
		}
		if hits := counterValue(t, reg, "query_cache_hits_total", ""); hits != uint64(len(paths)) {
			t.Fatalf("workers=%d: cache hits = %d, want %d", workers, hits, len(paths))
		}
		if want == nil {
			want = got
			continue
		}
		for _, p := range paths {
			if !bytes.Equal(want[p], got[p]) {
				t.Fatalf("%s: body differs between worker counts 1 and %d", p, workers)
			}
		}
	}
}

// corruptSnapshotRecord rewrites the snapshot file at path with an
// unknown flag bit on its first record, the root directory, and its CRC
// sealed again: the file passes the load's CRC and header checks, and
// its records fail.
func corruptSnapshotRecord(t *testing.T, path string) {
	t.Helper()
	s, err := snapshot.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	nameBytes := 0
	if err := s.Each(func(r *snapshot.WalkRecord) { nameBytes += len(r.Name) }); err != nil {
		t.Fatal(err)
	}
	head := []byte("FSSNAP01")
	for _, str := range []string{s.Machine, s.Volume} {
		head = append(binary.AppendUvarint(head, uint64(len(str))), str...)
	}
	head = binary.AppendVarint(head, int64(s.TakenAt))
	head = binary.AppendUvarint(head, uint64(s.Len()))
	head = binary.AppendUvarint(head, uint64(nameBytes))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The root record opens with depth 0 and the directory flag.
	if data[len(head)] != 0 || data[len(head)+1] != 1 {
		t.Fatalf("%s: no root record after the header", path)
	}
	data[len(head)+1] = 2
	binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.ChecksumIEEE(data[:len(data)-4]))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestBadSnapshotRecordFailsSection5 gives the snapshot that §5's first
// census line reads a bad record under a valid CRC. The corpus loads, as
// the load checks each snapshot's CRC and header only. §5 then fails on
// fsreport's path (load, compute, RenderSection5) at GOMAXPROCS 1 and 4
// with an error naming the file; /v1/report?artifact=section5 answers
// 500 naming it, caches nothing, so a second request renders again and
// fails the same way, and the other artifacts are still served.
func TestBadSnapshotRecordFailsSection5(t *testing.T) {
	s := core.NewStudy(core.Config{
		Seed: 13, Machines: 3, Duration: 5 * sim.Minute,
		WithNetwork: true, SnapshotAtStart: true,
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.snap"))
	if err != nil || len(files) == 0 {
		t.Fatalf("saved %d snapshots (%v)", len(files), err)
	}
	bad := filepath.Base(files[0]) // the first machine's first walk
	corruptSnapshotRecord(t, files[0])

	c, err := core.LoadCorpusTrace(dir, nil, nil)
	if err != nil {
		t.Fatalf("a corpus whose snapshot has a bad record under a valid CRC fails the load: %v", err)
	}
	res := report.ComputeWorkers(c.DS, 2)
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		_, err := res.RenderSection5(c.Snaps)
		runtime.GOMAXPROCS(prev)
		if !errors.Is(err, snapshot.ErrCorrupt) || !strings.Contains(err.Error(), bad) {
			t.Errorf("GOMAXPROCS=%d: RenderSection5 err = %v, want ErrCorrupt naming %s", procs, err, bad)
		}
	}

	svc, _ := newTestService(t, dir, Config{})
	h := svc.Handler()
	const path = "/v1/report?artifact=section5"
	for i := 0; i < 2; i++ {
		code, _, body := get(t, h, path)
		if code != http.StatusInternalServerError || !bytes.Contains(body, []byte(bad)) {
			t.Errorf("request %d: status %d, body %s; want 500 naming %s", i+1, code, body, bad)
		}
		if _, ok := svc.cache.Get(keyFor(svc.corpus.SHA, "report|artifact=section5")); ok {
			t.Errorf("request %d: the failed render was cached", i+1)
		}
	}
	if code, _, body := get(t, h, "/v1/report?artifact=table2"); code != http.StatusOK {
		t.Errorf("table2 after the failed §5: status %d: %s", code, body)
	}
}

// TestReportSectionRegistry pins that fsreport and /v1/report name the
// report's sections from the one registry: the names are distinct,
// report.Select (fsreport's selection) returns the named sections in the
// order given, the /v1/report index is the registry's names sorted,
// every name is served as its section renders, and an unknown name is
// refused — by Select with the list of valid names.
func TestReportSectionRegistry(t *testing.T) {
	names := report.Names()
	if len(names) != len(report.Sections) || len(names) != 27 {
		t.Fatalf("%d names for %d sections, want 27", len(names), len(report.Sections))
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Errorf("section %q is registered twice", n)
		}
		seen[n] = true
	}

	all, err := report.Select()
	if err != nil || len(all) != len(names) {
		t.Fatalf("Select() = %d sections (%v), want the whole report", len(all), err)
	}
	reversed := slices.Clone(names)
	slices.Reverse(reversed)
	sel, err := report.Select(reversed...)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range sel {
		if s.Name != reversed[i] {
			t.Errorf("Select slot %d = %q, want %q", i, s.Name, reversed[i])
		}
	}
	_, err = report.Select("table2", "fig1")
	if err == nil || !strings.Contains(err.Error(), `"fig1"`) ||
		!strings.HasSuffix(err.Error(), "valid names: "+strings.Join(names, " ")) {
		t.Errorf("Select(table2, fig1) err = %v, want fig1 refused with the valid names", err)
	}

	dir := corpusDir(t)
	svc, _ := newTestService(t, dir, Config{})
	h := svc.Handler()
	code, _, body := get(t, h, "/v1/report")
	var index reportBody
	if err := json.Unmarshal(body, &index); code != http.StatusOK || err != nil {
		t.Fatalf("index: status %d (%v): %s", code, err, body)
	}
	want := slices.Clone(names)
	slices.Sort(want)
	if !slices.Equal(index.Available, want) {
		t.Errorf("index lists %v, want the sorted registry %v", index.Available, want)
	}
	res, err := svc.results()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range report.Sections {
		want, err := s.Render(res, svc.corpus.Parts().Snaps)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		code, _, body := get(t, h, "/v1/report?artifact="+s.Name)
		var got reportBody
		if err := json.Unmarshal(body, &got); code != http.StatusOK || err != nil || got.Text != want {
			t.Errorf("/v1/report?artifact=%s: status %d (%v), text differs from the section's render", s.Name, code, err)
		}
	}
	if code, _, body := get(t, h, "/v1/report?artifact=fig1"); code != http.StatusBadRequest {
		t.Errorf("artifact=fig1: status %d, want 400: %s", code, body)
	}
}

// TestRowOnlyMachineFailsClosed pins that a machine saved only as a
// legacy row stream, with no segment of the same stem, fails the load —
// in core.LoadCorpusTrace and in OpenCorpusTrace — with
// ErrManifestMismatch naming the missing segment, instead of leaving the
// machine out.
func TestRowOnlyMachineFailsClosed(t *testing.T) {
	name := study.Store.Machines()[1]
	dir, err := legacyCopy(study, corpusDir(t), []string{name})
	if err != nil {
		t.Fatal(err)
	}
	check := func(what string, err error) {
		if !errors.Is(err, collect.ErrManifestMismatch) || !strings.Contains(err.Error(), name+collect.ColumnarExt) {
			t.Errorf("%s: err = %v, want ErrManifestMismatch naming %s%s", what, err, name, collect.ColumnarExt)
		}
	}
	_, err = core.LoadCorpusTrace(dir, nil, nil)
	check("core.LoadCorpusTrace", err)
	_, err = OpenCorpusTrace(dir, nil, nil)
	check("OpenCorpusTrace", err)
}

// TestMissingSegmentFailsClosed pins that a saved corpus missing one of
// the segments its stem manifest lists fails the load — in
// core.LoadCorpusTrace and in OpenCorpusTrace — with an error naming the
// file, instead of loading the other machines.
func TestMissingSegmentFailsClosed(t *testing.T) {
	dir, err := legacyCopy(study, corpusDir(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	seg := collect.SafeName(study.Store.Machines()[2]) + collect.ColumnarExt
	if err := os.Remove(filepath.Join(dir, seg)); err != nil {
		t.Fatal(err)
	}
	check := func(what string, err error) {
		if !errors.Is(err, collect.ErrManifestMismatch) || !strings.Contains(err.Error(), seg) {
			t.Errorf("%s: err = %v, want ErrManifestMismatch naming %s", what, err, seg)
		}
	}
	_, err = core.LoadCorpusTrace(dir, nil, nil)
	check("core.LoadCorpusTrace", err)
	_, err = OpenCorpusTrace(dir, nil, nil)
	check("OpenCorpusTrace", err)
}

// TestEmptyCorpusFailsClosed pins that a corpus directory whose stem
// manifest lists no machine fails the load — in core.LoadCorpusTrace and
// in OpenCorpusTrace — with an error naming the directory, instead of
// loading an empty corpus whose report would dereference a nil machine.
func TestEmptyCorpusFailsClosed(t *testing.T) {
	dir := t.TempDir()
	man := []byte(`{"version":1,"stems":{}}`)
	if err := os.WriteFile(filepath.Join(dir, collect.StemManifestName), man, 0o644); err != nil {
		t.Fatal(err)
	}
	check := func(what string, err error) {
		if err == nil || !strings.Contains(err.Error(), dir) {
			t.Errorf("%s: err = %v, want an error naming %s", what, err, dir)
		}
	}
	_, err := core.LoadCorpusTrace(dir, nil, nil)
	check("core.LoadCorpusTrace", err)
	_, err = OpenCorpusTrace(dir, nil, nil)
	check("OpenCorpusTrace", err)
}

// TestCorpusContractFailsClosed pins that a corpus directory outside the
// one contract (machines.json, *.fsc, *.snap, optional manifest.json)
// fails the load — in core.LoadCorpusTrace and in OpenCorpusTrace — with
// an error naming the file at fault: a directory saved before the stem
// manifest, one holding a JSON snapshot (the format before *.snap),
// and a stem manifest with a repeated machine name or another version.
func TestCorpusContractFailsClosed(t *testing.T) {
	own := corpusDir(t)
	names := study.Store.Machines() // already safe file stems
	writeStems := func(version int, second string) func(dir string) (string, error) {
		return func(dir string) (string, error) {
			stems := map[string]string{}
			for _, n := range names {
				stems[n] = n
			}
			stems[names[1]] = second
			data, err := json.Marshal(map[string]any{"version": version, "stems": stems})
			if err != nil {
				return "", err
			}
			return collect.StemManifestName, os.WriteFile(filepath.Join(dir, collect.StemManifestName), data, 0o644)
		}
	}
	for _, tc := range []struct {
		what string
		edit func(dir string) (file string, err error)
	}{
		{"no stem manifest", func(dir string) (string, error) {
			return collect.StemManifestName, os.Remove(filepath.Join(dir, collect.StemManifestName))
		}},
		{"JSON snapshot", func(dir string) (string, error) {
			snaps, err := filepath.Glob(filepath.Join(dir, "*.snap"))
			if err != nil || len(snaps) == 0 {
				return "", fmt.Errorf("corpus holds %d snapshots (%v)", len(snaps), err)
			}
			file := filepath.Base(snaps[0]) + ".json"
			return file, os.Rename(snaps[0], filepath.Join(dir, file))
		}},
		{"repeated name", writeStems(1, names[0])},
		{"version 2", writeStems(2, names[1])},
	} {
		dir, err := legacyCopy(study, own, nil)
		if err != nil {
			t.Fatal(err)
		}
		file, err := tc.edit(dir)
		if err != nil {
			t.Fatalf("%s: %v", tc.what, err)
		}
		if _, err := core.LoadCorpusTrace(dir, nil, nil); err == nil || !strings.Contains(err.Error(), file) {
			t.Errorf("%s: core.LoadCorpusTrace err = %v, want an error naming %s", tc.what, err, file)
		}
		if _, err := OpenCorpusTrace(dir, nil, nil); err == nil || !strings.Contains(err.Error(), file) {
			t.Errorf("%s: OpenCorpusTrace err = %v, want an error naming %s", tc.what, err, file)
		}
	}
}

// TestCorruptNameColumnFailsClosed pins that a segment whose blocks
// pass their CRC but whose name column does not decode is refused when
// the corpus loads — by core.LoadCorpusTrace and by OpenCorpusTrace — rather than
// panicking on first use of the name map.
func TestCorruptNameColumnFailsClosed(t *testing.T) {
	var recs []tracefmt.Record
	for i := 0; i < 64; i++ {
		r := tracefmt.Record{Kind: tracefmt.EvRead, Start: sim.Time(i), FileID: types.FileObjectID(1 + i%4)}
		if i%8 == 0 {
			r.Kind = tracefmt.EvNameMap
			r.SetName(fmt.Sprintf(`C:\f%d.txt`, i))
		}
		recs = append(recs, r)
	}
	data, _, err := colstore.EncodeSegment(recs, colstore.Options{BlockRecords: 16})
	if err != nil {
		t.Fatal(err)
	}
	corruptNameColumn(t, data)
	seg, err := colstore.OpenSegment(data, nil)
	if err != nil {
		t.Fatalf("corrupted segment no longer opens: %v", err)
	}
	if _, err := seg.ScanColumns(colstore.Predicate{}, colstore.ScanAllNumeric); err != nil {
		t.Fatalf("numeric columns no longer decode: %v", err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "m"+collect.ColumnarExt), data, 0o644); err != nil {
		t.Fatal(err)
	}
	man := []byte(`{"version":1,"stems":{"m":"m"}}`)
	if err := os.WriteFile(filepath.Join(dir, collect.StemManifestName), man, 0o644); err != nil {
		t.Fatal(err)
	}
	check := func(what string, err error) {
		if !errors.Is(err, colstore.ErrCorrupt) || !strings.Contains(err.Error(), "name column") {
			t.Errorf("%s: err = %v, want colstore.ErrCorrupt in the name column", what, err)
		}
	}
	_, err = core.LoadCorpusTrace(dir, nil, nil)
	check("core.LoadCorpusTrace", err)
	_, err = OpenCorpusTrace(dir, nil, nil)
	check("OpenCorpusTrace", err)
}

// corruptNameColumn rewrites the encoding tag of every block's name
// column to the integer varint encoding, which the name decoder
// refuses, and re-seals each block's footer CRC so the damage passes
// every integrity check short of decoding the names.
func corruptNameColumn(t *testing.T, data []byte) {
	t.Helper()
	le := binary.LittleEndian
	magic := len(colstore.Magic)
	footLen := int(le.Uint32(data[len(data)-magic-4:]))
	foot := data[len(data)-magic-4-footLen:]
	const fixed, metaSize = 4 + 8 + 4 + 32, 44
	blocks := int(le.Uint32(foot[12:]))
	for b := 0; b < blocks; b++ {
		meta := foot[fixed+b*metaSize:]
		off, n := le.Uint64(meta), le.Uint32(meta[8:])
		raw := data[off : off+uint64(n)]
		col := raw[4:]
		for c := 0; c < colstore.NumColumns; c++ {
			plen := int(le.Uint32(col[1:]))
			if colstore.Column(c) == colstore.ColName {
				col[0] = col[0]&0x80 | 1 // keep the flate bit, claim uvarint
			}
			col = col[5+plen:]
		}
		le.PutUint32(meta[40:], crc32.ChecksumIEEE(raw))
	}
}

// TestCanonicalization pins that equivalent request spellings share one
// cache entry.
func TestCanonicalization(t *testing.T) {
	dir := corpusDir(t)
	svc, _ := newTestService(t, dir, Config{})
	c := svc.Corpus()
	cases := [][2]string{
		{"kinds=Read,Write", "kinds=Write,read"},
		{"kinds=Read", fmt.Sprintf("kinds=%d", kindNumber(t, "Read"))},
		{"min_h=1", fmt.Sprintf("min=%d", int64(sim.Hour))},
		{"cols=kind,start", ""},
	}
	for _, tc := range cases {
		a, err := parseScanQuery(c, parseVals(t, tc[0]))
		if err != nil {
			t.Fatalf("%s: %v", tc[0], err)
		}
		b, err := parseScanQuery(c, parseVals(t, tc[1]))
		if err != nil {
			t.Fatalf("%s: %v", tc[1], err)
		}
		if a.canonical() != b.canonical() {
			t.Errorf("%q and %q canonicalize differently:\n%s\n%s", tc[0], tc[1], a.canonical(), b.canonical())
		}
	}
	a, _ := parseScanQuery(c, parseVals(t, "kinds=Read"))
	b, _ := parseScanQuery(c, parseVals(t, "kinds=Write"))
	if a.canonical() == b.canonical() {
		t.Error("different queries share a canonical form")
	}
}

// canonicalValues spells a resolved scan query as the request parameters
// of its canonical form: explicit machines, column names, kind numbers,
// the limit and both bounds in ticks.
func canonicalValues(q *scanQuery) url.Values {
	kinds := make([]string, len(q.pred.Kinds))
	for i, k := range q.pred.Kinds {
		kinds[i] = strconv.Itoa(int(k))
	}
	return url.Values{
		"machine": {strings.Join(q.machines, ",")},
		"cols":    {strings.Join(columnNames(q.cols), ",")},
		"kinds":   {strings.Join(kinds, ",")},
		"limit":   {strconv.Itoa(q.limit)},
		"min":     {strconv.FormatInt(int64(q.pred.MinStart), 10)},
		"max":     {strconv.FormatInt(int64(q.pred.MaxStart), 10)},
	}
}

// FuzzScanQueryCanonical feeds parseScanQuery arbitrary query strings
// over a corpus of three machines. Every accepted query must re-parse
// from its canonical form to the same canonical string and cache key,
// so equivalent spellings can share one cache entry and a cached query
// names itself.
func FuzzScanQueryCanonical(f *testing.F) {
	c := &Corpus{machines: []string{"m1", "m2", "walk-up-01"}}
	for _, seed := range []string{
		"",
		"kinds=Read,Write&cols=kind,start&min_h=0.5&max_h=1.5&limit=8",
		"machine=m2,m1,m2&kinds=read,1,read&cols=start,kind,start",
		"min=100&max=50",
		"min_h=1e300",
		"max_h=NaN",
		"cols=annot,flags,status&limit=0&machine=walk-up-01",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		vals, err := url.ParseQuery(raw)
		if err != nil {
			return
		}
		q, err := parseScanQuery(c, vals)
		if err != nil {
			return
		}
		canon := q.canonical()
		again, err := parseScanQuery(c, canonicalValues(q))
		if err != nil {
			t.Fatalf("%q canonicalizes to %q, whose parameters %v fail: %v", raw, canon, canonicalValues(q), err)
		}
		if got := again.canonical(); got != canon {
			t.Fatalf("%q canonicalizes to %q, which re-parses to %q", raw, canon, got)
		}
		if keyFor(c.SHA, again.canonical()) != keyFor(c.SHA, canon) {
			t.Fatalf("%q: canonical form re-parses to another cache key", raw)
		}
	})
}

func parseVals(t *testing.T, query string) url.Values {
	t.Helper()
	v, err := url.ParseQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func kindNumber(t *testing.T, name string) int {
	t.Helper()
	kinds, err := ParseKinds(name)
	if err != nil || len(kinds) != 1 {
		t.Fatalf("ParseKinds(%q) = %v, %v", name, kinds, err)
	}
	return int(kinds[0])
}

// TestBackpressure429 saturates the admission pool and checks the
// refusal path: over-limit requests get 429 + Retry-After immediately,
// admitted requests complete once capacity frees up.
func TestBackpressure429(t *testing.T) {
	dir := corpusDir(t)
	svc, reg := newTestService(t, dir, Config{MaxInflight: 1, MaxQueue: 1, Timeout: 10 * time.Second})
	h := svc.Handler()

	// Occupy the only execution slot so admitted requests queue.
	svc.slots <- struct{}{}

	results := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			code, _, _ := get(t, h, "/v1/machines")
			results <- code
		}()
	}
	// Wait until both are admitted (pending == MaxInflight+MaxQueue).
	deadline := time.Now().Add(5 * time.Second)
	for svc.pending.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("admitted requests never queued; pending=%d", svc.pending.Load())
		}
		time.Sleep(time.Millisecond)
	}

	code, hdr, _ := get(t, h, "/v1/machines")
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-limit request: status %d, want 429", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 response missing Retry-After")
	}
	if got := counterValue(t, reg, "query_rejected_total", ""); got != 1 {
		t.Fatalf("query_rejected_total = %d, want 1", got)
	}

	// Free the slot; both queued requests must now complete with 200.
	<-svc.slots
	for i := 0; i < 2; i++ {
		select {
		case code := <-results:
			if code != http.StatusOK {
				t.Fatalf("queued request finished with %d", code)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("queued request never completed after the slot freed")
		}
	}
}

// TestRequestTimeout pins the deadline path: a request that cannot get
// an execution slot within its deadline answers 504.
func TestRequestTimeout(t *testing.T) {
	dir := corpusDir(t)
	svc, reg := newTestService(t, dir, Config{MaxInflight: 1, MaxQueue: 4, Timeout: 50 * time.Millisecond})
	svc.slots <- struct{}{} // wedge the pool
	start := time.Now()
	code, _, _ := get(t, svc.Handler(), "/v1/machines")
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", code)
	}
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond || elapsed > 5*time.Second {
		t.Fatalf("timed out after %s, want ~50ms", elapsed)
	}
	if got := counterValue(t, reg, "query_timeouts_total", ""); got != 1 {
		t.Fatalf("query_timeouts_total = %d, want 1", got)
	}
}

// TestDrain pins graceful shutdown: Drain waits for admitted work and
// flips subsequent requests to 503.
func TestDrain(t *testing.T) {
	dir := corpusDir(t)
	svc, _ := newTestService(t, dir, Config{})
	h := svc.Handler()
	if code, _, _ := get(t, h, "/v1/machines"); code != http.StatusOK {
		t.Fatalf("pre-drain request: %d", code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if code, _, _ := get(t, h, "/v1/machines"); code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain request: %d, want 503", code)
	}
	if code, _, _ := get(t, h, "/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain healthz: %d, want 503", code)
	}
}

// TestCacheLRU unit-tests the sharded cache: eviction respects the byte
// bound and least-recently-used order.
func TestCacheLRU(t *testing.T) {
	cache := NewCache(16*64, nil) // 64 bytes per shard
	key := func(b byte, n int) cacheKey {
		var k cacheKey
		k[0] = b // pin the shard
		k[1] = byte(n)
		return k
	}
	body := bytes.Repeat([]byte("x"), 30)
	cache.Put(key(0, 1), body)
	cache.Put(key(0, 2), body)
	if _, ok := cache.Get(key(0, 1)); !ok {
		t.Fatal("entry 1 missing before eviction")
	}
	// Entry 1 is now most-recent; inserting a third evicts entry 2.
	cache.Put(key(0, 3), body)
	if _, ok := cache.Get(key(0, 2)); ok {
		t.Fatal("LRU entry survived eviction")
	}
	if _, ok := cache.Get(key(0, 1)); !ok {
		t.Fatal("recently-used entry was evicted")
	}
	// Oversized bodies are refused, not thrashed in.
	cache.Put(key(0, 4), bytes.Repeat([]byte("y"), 65))
	if _, ok := cache.Get(key(0, 4)); ok {
		t.Fatal("oversized body was cached")
	}
	if n := cache.Len(); n != 2 {
		t.Fatalf("Len = %d, want 2", n)
	}
}

// TestScanLimit pins the truncation contract: matched counts the full
// predicate hits, returned counts the projected rows.
func TestScanLimit(t *testing.T) {
	dir := corpusDir(t)
	svc, _ := newTestService(t, dir, Config{})
	_, _, full := get(t, svc.Handler(), "/v1/scan?cols=kind")
	_, _, limited := get(t, svc.Handler(), "/v1/scan?cols=kind&limit=5")
	var fb, lb scanBody
	if err := json.Unmarshal(full, &fb); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(limited, &lb); err != nil {
		t.Fatal(err)
	}
	if fb.Matched != lb.Matched {
		t.Fatalf("limit changed matched: %d vs %d", fb.Matched, lb.Matched)
	}
	if fb.Matched == 0 {
		t.Fatal("test corpus matched no rows")
	}
	if fb.Returned != fb.Matched {
		t.Fatalf("unlimited scan returned %d of %d", fb.Returned, fb.Matched)
	}
	for _, m := range lb.Machines {
		if len(m.Kinds) > 5 {
			t.Fatalf("%s: limit ignored, %d rows", m.Name, len(m.Kinds))
		}
		if m.Matched > 5 && !m.Truncated {
			t.Fatalf("%s: truncation not flagged", m.Name)
		}
	}
}

// TestLoadGenerator drives the built-in load mode at a deliberately
// tiny admission pool and checks both outcomes appear: successes and
// 429 rejections, with no transport errors.
func TestLoadGenerator(t *testing.T) {
	dir := corpusDir(t)
	svc, _ := newTestService(t, dir, Config{MaxInflight: 1, MaxQueue: 1, Workers: 2})
	mux := http.NewServeMux()
	mux.Handle("/", svc.Handler())
	ts := httptest.NewServer(mux)
	defer ts.Close()

	stats := RunLoad(context.Background(), ts.URL, svc.Corpus().Machines(), LoadConfig{
		Clients:  8,
		Requests: 30,
		Seed:     3,
	})
	if stats.Sent != 8*30 {
		t.Fatalf("sent %d, want %d", stats.Sent, 8*30)
	}
	if stats.Errors != 0 {
		t.Fatalf("load run saw %d transport/status errors", stats.Errors)
	}
	if stats.OK == 0 {
		t.Fatal("load run never succeeded")
	}
	if stats.Rejected == 0 {
		t.Fatal("load run at MaxInflight=1 never tripped the 429 path")
	}
}

// counterValue reads one counter family value from the registry render.
func counterValue(t *testing.T, reg *obs.Registry, name, label string) uint64 {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.Render(&buf); err != nil {
		t.Fatal(err)
	}
	var total uint64
	for _, line := range bytes.Split(buf.Bytes(), []byte("\n")) {
		s := string(line)
		if !hasMetric(s, name) {
			continue
		}
		if label != "" && !contains(s, label) {
			continue
		}
		var v uint64
		if _, err := fmt.Sscanf(s[lastSpace(s)+1:], "%d", &v); err == nil {
			total += v
		}
	}
	return total
}

func hasMetric(line, name string) bool {
	return len(line) > len(name) && line[:len(name)] == name &&
		(line[len(name)] == ' ' || line[len(name)] == '{')
}

func contains(s, sub string) bool { return bytes.Contains([]byte(s), []byte(sub)) }

func lastSpace(s string) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == ' ' {
			return i
		}
	}
	return -1
}
