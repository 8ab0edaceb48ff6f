package repro

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/sim"
)

// queryService builds (once) a columnar corpus on disk and a query
// service over it, shared by the query benchmarks.
var (
	queryOnce sync.Once
	querySvc  *query.Service
	queryErr  error
)

func queryService(b *testing.B) *query.Service {
	b.Helper()
	queryOnce.Do(func() {
		dir, err := os.MkdirTemp("", "bench-query-")
		if err != nil {
			queryErr = err
			return
		}
		s := core.NewStudy(core.Config{
			Seed:        11,
			Machines:    6,
			Duration:    sim.Hour,
			WithNetwork: true,
		})
		if queryErr = s.Run(); queryErr != nil {
			return
		}
		if queryErr = s.Save(dir); queryErr != nil {
			return
		}
		var c *query.Corpus
		if c, queryErr = query.OpenCorpusTrace(dir, nil, nil); queryErr != nil {
			return
		}
		querySvc = query.NewService(c, query.Config{Workers: 4})
	})
	if queryErr != nil {
		b.Fatal(queryErr)
	}
	return querySvc
}

// benchScanPath is a full-corpus scan (no kind predicate, so zone maps
// cannot skip blocks) projecting six columns, with a small response
// body: cold cost is the corpus pass, hit cost is a key lookup plus the
// body copy, so the ratio isolates what the cache buys.
const benchScanPath = "/v1/scan?cols=kind,start,offset,length,proc,filesize&limit=5"

func serveOnce(b *testing.B, h http.Handler, path string) []byte {
	b.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatalf("%s: status %d", path, rec.Code)
	}
	body, _ := io.ReadAll(rec.Result().Body)
	return body
}

// BenchmarkQueryCold measures the uncached scan path: every iteration
// runs the full predicate-pushdown pass over the corpus. The cache is
// swept before each timed request by using a fresh service per run.
func BenchmarkQueryCold(b *testing.B) {
	svc := queryService(b)
	h := svc.Handler()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		// A fresh service shares the loaded corpus but starts with an
		// empty cache, so the timed request is always cold.
		cold := query.NewService(svc.Corpus(), query.Config{Workers: 4})
		h = cold.Handler()
		b.StartTimer()
		serveOnce(b, h, benchScanPath)
	}
}

// BenchmarkQueryCacheHit measures the cached path and enforces the
// acceptance floor: a hit must be at least 100x faster than the cold
// scan it replaces. The speedup is measured inside the benchmark so the
// guarantee travels with the tracked numbers.
func BenchmarkQueryCacheHit(b *testing.B) {
	svc := queryService(b)
	h := svc.Handler()
	warm := serveOnce(b, h, benchScanPath) // populate the cache

	// Cold reference: median of three scans through cache-empty
	// services sharing the loaded corpus — one sample is too noisy on a
	// contended core to anchor the speedup floor.
	coldRuns := make([]time.Duration, 3)
	for i := range coldRuns {
		coldSvc := query.NewService(svc.Corpus(), query.Config{Workers: 4})
		coldStart := time.Now()
		coldBody := serveOnce(b, coldSvc.Handler(), benchScanPath)
		coldRuns[i] = time.Since(coldStart)
		if !bytes.Equal(warm, coldBody) {
			b.Fatal("cold and cached bodies differ")
		}
	}
	sort.Slice(coldRuns, func(i, j int) bool { return coldRuns[i] < coldRuns[j] })
	coldDur := coldRuns[1]

	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		serveOnce(b, h, benchScanPath)
	}
	hitDur := time.Since(start) / time.Duration(b.N)
	b.StopTimer()

	if hitDur > 0 {
		speedup := float64(coldDur) / float64(hitDur)
		b.ReportMetric(speedup, "speedup_x")
		if speedup < 100 {
			b.Fatalf("cache hit only %.1fx faster than cold scan (floor: 100x)", speedup)
		}
	}
}
