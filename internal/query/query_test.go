package query

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/collect"
	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/ntos/types"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/tracefmt"
)

// The package's tests share one small study, saved once (the primary
// fixture) and once more as a legacy row corpus imported the way
// fscorpus convert does it, which proves the import equivalent.
var (
	studyOnce sync.Once
	study     *core.Study
	ownDir    string
	convDir   string
	studyErr  error
)

func corpusDirs(t *testing.T) (own, converted string) {
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
		if studyErr = study.Save(ownDir); studyErr != nil {
			return
		}
		if convDir, studyErr = legacyCopy(study, ownDir, study.Store.Machines()); studyErr != nil {
			return
		}
		var store *collect.Store
		if store, studyErr = collect.LoadDir(convDir); studyErr != nil {
			return
		}
		_, studyErr = store.SaveColumnarDir(convDir, colstore.Options{})
	})
	if studyErr != nil {
		t.Fatal(studyErr)
	}
	return ownDir, convDir
}

// legacyCopy copies the corpus in src to a new directory, replacing the
// segments of the machines in rows by their legacy row streams
// (<name>.trz), the layout the program saved before segments became its
// only one. Study machine names are already safe file stems, so the
// stem manifest still holds.
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
	dir, _ := corpusDirs(t)
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

// TestRowColumnarEquivalent pins the import of legacy row corpora: a
// row corpus converted with collect.LoadDir and SaveColumnarDir, as
// fscorpus convert does it, carries the segment digests and the corpus
// identity of the study's own save and answers scans, machine listings
// and report artifacts byte-identically, so cache keys survive the
// import.
func TestRowColumnarEquivalent(t *testing.T) {
	own, conv := corpusDirs(t)
	oSvc, _ := newTestService(t, own, Config{Workers: 4})
	cSvc, _ := newTestService(t, conv, Config{Workers: 4})
	if oSvc.Corpus().SHAHex() != cSvc.Corpus().SHAHex() {
		t.Fatalf("corpus identity differs after import: %s vs %s",
			oSvc.Corpus().SHAHex(), cSvc.Corpus().SHAHex())
	}
	oSegs, cSegs := oSvc.Corpus().Parts().Segments, cSvc.Corpus().Parts().Segments
	if len(cSegs) != len(oSegs) {
		t.Fatalf("imported corpus has %d segments, own save %d", len(cSegs), len(oSegs))
	}
	for name, seg := range oSegs {
		if cSegs[name] == nil || cSegs[name].SHA256() != seg.SHA256() {
			t.Errorf("%s: imported segment digest differs from the own save's", name)
		}
	}
	for _, p := range []string{
		scanPath, "/v1/scan?limit=10&kinds=3,5", "/v1/machines",
		"/v1/report?artifact=table2", "/v1/report?artifact=section5",
	} {
		code, _, oBody := get(t, oSvc.Handler(), p)
		_, _, cBody := get(t, cSvc.Handler(), p)
		if code != http.StatusOK || !bytes.Equal(oBody, cBody) {
			t.Fatalf("%s: imported corpus answers differently (status %d)\nown:      %s\nimported: %s", p, code, oBody, cBody)
		}
	}
}

// TestRowOnlyMachineFailsClosed pins that a machine saved only as a
// legacy row stream, with no segment of the same stem, fails the load —
// in core.LoadCorpusTrace and in OpenCorpusTrace — with an error naming
// the file and the converter, instead of leaving the machine out.
func TestRowOnlyMachineFailsClosed(t *testing.T) {
	own, _ := corpusDirs(t)
	name := study.Store.Machines()[1]
	dir, err := legacyCopy(study, own, []string{name})
	if err != nil {
		t.Fatal(err)
	}
	check := func(what string, err error) {
		if err == nil || !strings.Contains(err.Error(), name+".trz") || !strings.Contains(err.Error(), "fscorpus convert") {
			t.Errorf("%s: err = %v, want an error naming %s.trz and fscorpus convert", what, err, name)
		}
	}
	_, err = core.LoadCorpusTrace(dir, nil, nil)
	check("core.LoadCorpusTrace", err)
	_, err = OpenCorpusTrace(dir, nil, nil)
	check("OpenCorpusTrace", err)
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
	if _, err := core.LoadCorpusTrace(dir, nil, nil); err == nil {
		t.Error("core.LoadCorpusTrace accepted a segment whose name column does not decode")
	}
	if _, err := OpenCorpusTrace(dir, nil, nil); err == nil {
		t.Error("OpenCorpusTrace accepted a segment whose name column does not decode")
	}
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
	dir, _ := corpusDirs(t)
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
	dir, _ := corpusDirs(t)
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
	dir, _ := corpusDirs(t)
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
	dir, _ := corpusDirs(t)
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
	dir, _ := corpusDirs(t)
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
	dir, _ := corpusDirs(t)
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
