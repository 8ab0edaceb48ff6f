package query

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/colstore"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/par"
	"repro/internal/report"
)

// Config tunes a Service. Zero values select the defaults noted per
// field.
type Config struct {
	Workers     int           // scan/report fan-out width (default GOMAXPROCS via report)
	CacheBytes  int64         // result-cache bound (default 64 MiB)
	MaxInflight int           // admission slots actually executing (default 8)
	MaxQueue    int           // requests allowed to wait for a slot (default 32)
	Timeout     time.Duration // per-request deadline (default 30s)
	Obs         *obs.Registry // nil ok: metrics become no-ops
	// Tracer, when set, records one span tree per admitted request —
	// admission wait, cache probe, per-machine scans, merge, encode —
	// returns the trace ID in X-Trace-Id, and links the latency
	// histograms to the flight recorder via exemplars. Nil disables all
	// of it at the cost of one predictable branch.
	Tracer *trace.Tracer
	// SlowMS, when positive, logs one structured line (via Logf) for any
	// request whose wall time exceeds this many milliseconds. The stage
	// breakdown is a view over the request's spans — there is no second
	// timing path — so it needs Tracer to be set.
	SlowMS int64
	Logf   func(format string, args ...any) // default log.Printf
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 8
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 32
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	return c
}

// Service answers corpus queries over HTTP. Every data endpoint runs
// under a bounded admission pool — MaxInflight requests execute, up to
// MaxQueue more wait, the rest are refused with 429 + Retry-After — and
// a per-request deadline. Results flow through the LRU body cache, so a
// repeated query is a key lookup plus a verbatim write of the bytes the
// cold path rendered.
type Service struct {
	corpus *Corpus
	cache  *Cache
	cfg    Config

	slots   chan struct{} // admission pool: one token per executing request
	pending atomic.Int64  // executing + queued, for the 429 bound

	resOnce sync.Once // report.Results is computed at most once per process
	res     *report.Results
	resErr  error

	requests     map[string]*obs.Counter   // per endpoint
	latency      map[string]*obs.Histogram // per endpoint, wall microseconds
	inflight     *obs.Gauge
	rejected     *obs.Counter
	timeouts     *obs.Counter
	rowsReturned *obs.Counter
	draining     atomic.Bool
	wg           sync.WaitGroup // live requests, for graceful drain
	startedAt    time.Time

	tracer *trace.Tracer
	seq    atomic.Uint64 // admitted-request sequence, mixed into trace IDs
}

// endpoints enumerated for per-endpoint instrumentation.
var endpoints = []string{"machines", "scan", "report", "stats"}

// NewService wraps an opened corpus in a query service.
func NewService(c *Corpus, cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		corpus:    c,
		cache:     NewCache(cfg.CacheBytes, cfg.Obs),
		cfg:       cfg,
		slots:     make(chan struct{}, cfg.MaxInflight),
		requests:  map[string]*obs.Counter{},
		latency:   map[string]*obs.Histogram{},
		startedAt: time.Now(),
	}
	reg := cfg.Obs
	s.tracer = cfg.Tracer
	for _, ep := range endpoints {
		s.requests[ep] = reg.Counter("query_requests_total",
			"query requests accepted, by endpoint", obs.Label{Key: "endpoint", Value: ep})
		s.latency[ep] = reg.Histogram("query_request_wall_us",
			"wall-clock request latency in microseconds, by endpoint",
			obs.Label{Key: "endpoint", Value: ep})
		if s.tracer != nil {
			// Link each latency bucket's worst request to its trace.
			s.latency[ep].EnableExemplars()
		}
	}
	s.inflight = reg.Gauge("query_inflight",
		"query requests currently admitted (executing or queued)")
	s.rejected = reg.Counter("query_rejected_total",
		"query requests refused with 429 because the admission queue was full")
	s.timeouts = reg.Counter("query_timeouts_total",
		"query requests that hit their per-request deadline")
	s.rowsReturned = reg.Counter("query_scan_rows_total",
		"rows returned by cold /v1/scan executions")
	return s
}

// Handler mounts the query API. The caller composes it with the obs
// /metrics handler on one mux.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/v1/machines", s.admitted("machines", s.handleMachines))
	mux.HandleFunc("/v1/scan", s.admitted("scan", s.handleScan))
	mux.HandleFunc("/v1/report", s.admitted("report", s.handleReport))
	mux.HandleFunc("/v1/stats", s.admitted("stats", s.handleStats))
	return mux
}

// Drain stops admitting new work and waits for live requests, bounded
// by ctx. It returns nil once the last admitted request finished.
func (s *Service) Drain(ctx context.Context) error {
	s.draining.Store(true)
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Cache exposes the result cache (tests and the stats endpoint).
func (s *Service) Cache() *Cache { return s.cache }

// Corpus exposes the served corpus.
func (s *Service) Corpus() *Corpus { return s.corpus }

type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	body, _ := json.Marshal(apiError{Error: msg})
	writeJSON(w, status, append(body, '\n'))
}

// admitted wraps a handler in the admission pool, deadline, and
// instrumentation. The 429 path answers before consuming a slot: a
// saturated service stays cheap to refuse — and untraced, so a refusal
// storm cannot churn the flight recorder.
func (s *Service) admitted(name string, h func(ctx context.Context, w http.ResponseWriter, r *http.Request, sp *trace.Span)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, "draining")
			return
		}
		limit := int64(s.cfg.MaxInflight + s.cfg.MaxQueue)
		if s.pending.Add(1) > limit {
			s.pending.Add(-1)
			s.rejected.Inc()
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, "admission queue full")
			return
		}
		s.wg.Add(1)
		s.inflight.Add(1)
		defer func() {
			s.inflight.Add(-1)
			s.pending.Add(-1)
			s.wg.Done()
		}()

		// The trace identity is content-derived — corpus, endpoint, raw
		// query — plus the admission sequence number, so an identical
		// request sequence reproduces identical trace IDs run after run.
		root := s.tracer.StartTrace(name, r.Method+" "+r.URL.Path, trace.MixID(
			trace.HashID(s.corpus.SHAHex(), name, r.URL.RawQuery), s.seq.Add(1)), nil)
		if tid := root.TraceID(); tid != 0 {
			w.Header().Set("X-Trace-Id", tid.String())
		}
		reqStart := time.Now()

		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
		defer cancel()
		admit := root.Child("admit")
		select {
		case s.slots <- struct{}{}:
			admit.Finish()
			defer func() { <-s.slots }()
		case <-ctx.Done():
			admit.Annotate("outcome", "timeout")
			admit.Finish()
			root.Finish()
			s.timeouts.Inc()
			writeError(w, http.StatusGatewayTimeout, "timed out waiting for an execution slot")
			return
		}

		start := time.Now()
		s.requests[name].Inc()
		h(ctx, w, r.WithContext(ctx), root)
		s.latency[name].ObserveWallExemplar(time.Since(start), uint64(root.TraceID()))
		root.Finish()
		s.maybeLogSlow(name, r, root, time.Since(reqStart))
	}
}

// maybeLogSlow emits the slow-query line: one structured entry whose
// stage breakdown is read back out of the request's own spans, so the
// log and the flight recorder can never disagree.
func (s *Service) maybeLogSlow(name string, r *http.Request, root *trace.Span, wall time.Duration) {
	if s.cfg.SlowMS <= 0 || wall.Milliseconds() < s.cfg.SlowMS {
		return
	}
	tid := root.TraceID()
	snap, ok := s.tracer.Find(tid)
	if !ok {
		return
	}
	// Aggregate sibling spans by stage (the first token of the span
	// name, so "scan m017" folds into "scan"), keeping order of first
	// appearance for a stable, readable breakdown.
	type agg struct {
		n     int
		total int64
		max   int64
	}
	var order []string
	stages := map[string]*agg{}
	cache := "-"
	for _, sp := range snap.Spans {
		if sp.SpanID == tid { // root carries request-level annotations
			if v := sp.Attr("cache"); v != "" {
				cache = v
			}
			continue
		}
		stage, _, _ := strings.Cut(sp.Name, " ")
		a := stages[stage]
		if a == nil {
			a = &agg{}
			stages[stage] = a
			order = append(order, stage)
		}
		a.n++
		a.total += sp.Duration()
		if sp.Duration() > a.max {
			a.max = sp.Duration()
		}
	}
	var b strings.Builder
	for i, stage := range order {
		if i > 0 {
			b.WriteByte(' ')
		}
		a := stages[stage]
		fmt.Fprintf(&b, "%s=%.1fms", stage, float64(a.total)/1e6)
		if a.n > 1 {
			fmt.Fprintf(&b, "/%d(max=%.1fms)", a.n, float64(a.max)/1e6)
		}
	}
	s.cfg.Logf("slow query method=%s endpoint=%s wall_ms=%d cache=%s trace=%s stages=[%s]",
		r.Method, name, wall.Milliseconds(), cache, tid, b.String())
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	writeJSON(w, http.StatusOK, []byte("{\"status\":\"ok\"}\n"))
}

// machinesBody is the /v1/machines response.
type machinesBody struct {
	Corpus   string        `json:"corpus_sha256"`
	Machines []machineInfo `json:"machines"`
}

type machineInfo struct {
	Name    string `json:"name"`
	Records int    `json:"records"`
}

func (s *Service) handleMachines(ctx context.Context, w http.ResponseWriter, r *http.Request, sp *trace.Span) {
	key := keyFor(s.corpus.SHA, "machines")
	if body, ok := s.cache.Get(key); ok {
		sp.Annotate("cache", "hit")
		writeJSON(w, http.StatusOK, body)
		return
	}
	sp.Annotate("cache", "miss")
	out := machinesBody{Corpus: s.corpus.SHAHex()}
	for _, m := range s.corpus.Machines() {
		out.Machines = append(out.Machines, machineInfo{
			Name:    m,
			Records: s.corpus.Records(m),
		})
	}
	body, err := json.Marshal(out)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	body = append(body, '\n')
	s.cache.Put(key, body)
	writeJSON(w, http.StatusOK, body)
}

// scanBody is the /v1/scan response: per-machine row sets in sorted
// machine order, each a column-major projection of the matched rows.
type scanBody struct {
	Corpus   string        `json:"corpus_sha256"`
	Query    string        `json:"query"`
	Matched  int           `json:"matched"`
	Returned int           `json:"returned"`
	Machines []machineScan `json:"machines"`
}

type machineScan struct {
	Name      string               `json:"name"`
	Matched   int                  `json:"matched"`
	Truncated bool                 `json:"truncated,omitempty"`
	Columns   map[string][]float64 `json:"columns,omitempty"`
	Kinds     []string             `json:"kinds,omitempty"`
}

func (s *Service) handleScan(ctx context.Context, w http.ResponseWriter, r *http.Request, sp *trace.Span) {
	q, err := parseScanQuery(s.corpus, r.URL.Query())
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	canon := q.canonical()
	key := keyFor(s.corpus.SHA, canon)
	probe := sp.Child("cache")
	body, hit := s.cache.Get(key)
	if hit {
		probe.Annotate("result", "hit")
		probe.Finish()
		sp.Annotate("cache", "hit")
		writeJSON(w, http.StatusOK, body)
		return
	}
	probe.Annotate("result", "miss")
	probe.Finish()
	sp.Annotate("cache", "miss")

	scans, err := s.runScan(ctx, q, sp)
	if err != nil {
		if ctx.Err() != nil {
			s.timeouts.Inc()
			writeError(w, http.StatusGatewayTimeout, "scan exceeded the request deadline")
			return
		}
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}

	merge := sp.Child("merge")
	out := scanBody{Corpus: s.corpus.SHAHex(), Query: canon, Machines: scans}
	for i := range scans {
		out.Matched += scans[i].Matched
		n := scans[i].Matched
		if q.limit > 0 && n > q.limit {
			n = q.limit
		}
		out.Returned += n
	}
	s.rowsReturned.Add(uint64(out.Returned))
	merge.AnnotateInt("rows", int64(out.Returned))
	merge.Finish()

	encode := sp.Child("encode")
	body, err = json.Marshal(out)
	if err != nil {
		encode.Finish()
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	body = append(body, '\n')
	encode.AnnotateInt("bytes", int64(len(body)))
	encode.Finish()
	s.cache.Put(key, body)
	writeJSON(w, http.StatusOK, body)
}

// runScan fans the machine list across cfg.Workers goroutines. Results
// land in slot-indexed entries of a pre-sized slice, so assembly order
// equals the sorted machine order regardless of completion order or
// worker count.
func (s *Service) runScan(ctx context.Context, q *scanQuery, sp *trace.Span) ([]machineScan, error) {
	out := make([]machineScan, len(q.machines))
	errs := make([]error, len(q.machines))
	par.For(s.cfg.Workers, len(q.machines), func(i int) {
		if ctx.Err() != nil {
			errs[i] = ctx.Err()
			return
		}
		name := q.machines[i]
		msp := sp.Child("scan " + name)
		batch, st, err := s.corpus.ScanMachine(name, q.pred, q.cols)
		if err != nil {
			msp.Annotate("error", err.Error())
			msp.Finish()
			errs[i] = err
			return
		}
		msp.AnnotateInt("blocks_scanned", int64(st.BlocksScanned))
		msp.AnnotateInt("blocks_skipped", int64(st.BlocksSkipped))
		msp.AnnotateInt("rows", int64(batch.N))
		msp.Finish()
		out[i] = renderScan(name, batch, q)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// renderScan projects one machine's batch into the response shape,
// applying the per-machine row limit.
func renderScan(name string, b *colstore.Batch, q *scanQuery) machineScan {
	ms := machineScan{Name: name, Matched: b.N}
	n := b.N
	if q.limit > 0 && n > q.limit {
		n = q.limit
		ms.Truncated = true
	}
	numeric := func(label string, vals []float64) {
		if ms.Columns == nil {
			ms.Columns = map[string][]float64{}
		}
		ms.Columns[label] = vals
	}
	if q.cols&colstore.ScanKind != 0 {
		ms.Kinds = make([]string, n)
		for i := 0; i < n; i++ {
			ms.Kinds[i] = b.Kinds[i].String()
		}
	}
	if q.cols&colstore.ScanStart != 0 {
		vals := make([]float64, n)
		for i := 0; i < n; i++ {
			vals[i] = float64(b.Starts[i])
		}
		numeric("start", vals)
	}
	if q.cols&colstore.ScanEnd != 0 {
		vals := make([]float64, n)
		for i := 0; i < n; i++ {
			vals[i] = float64(b.Ends[i])
		}
		numeric("end", vals)
	}
	if q.cols&colstore.ScanOffset != 0 {
		vals := make([]float64, n)
		for i := 0; i < n; i++ {
			vals[i] = float64(b.Offsets[i])
		}
		numeric("offset", vals)
	}
	if q.cols&colstore.ScanLength != 0 {
		vals := make([]float64, n)
		for i := 0; i < n; i++ {
			vals[i] = float64(b.Lengths[i])
		}
		numeric("length", vals)
	}
	if q.cols&colstore.ScanReturned != 0 {
		vals := make([]float64, n)
		for i := 0; i < n; i++ {
			vals[i] = float64(b.Returns[i])
		}
		numeric("returned", vals)
	}
	if q.cols&colstore.ScanFileSize != 0 {
		vals := make([]float64, n)
		for i := 0; i < n; i++ {
			vals[i] = float64(b.FileSizes[i])
		}
		numeric("filesize", vals)
	}
	if q.cols&colstore.ScanProc != 0 {
		vals := make([]float64, n)
		for i := 0; i < n; i++ {
			vals[i] = float64(b.Procs[i])
		}
		numeric("proc", vals)
	}
	if q.cols&colstore.ScanFileID != 0 {
		vals := make([]float64, n)
		for i := 0; i < n; i++ {
			vals[i] = float64(b.FileIDs[i])
		}
		numeric("fileid", vals)
	}
	if q.cols&colstore.ScanStatus != 0 {
		vals := make([]float64, n)
		for i := 0; i < n; i++ {
			vals[i] = float64(b.Statuses[i])
		}
		numeric("status", vals)
	}
	if q.cols&colstore.ScanFlags != 0 {
		vals := make([]float64, n)
		for i := 0; i < n; i++ {
			vals[i] = float64(b.Flags[i])
		}
		numeric("flags", vals)
	}
	if q.cols&colstore.ScanAnnot != 0 {
		vals := make([]float64, n)
		for i := 0; i < n; i++ {
			vals[i] = float64(b.Annots[i])
		}
		numeric("annot", vals)
	}
	return ms
}

// results computes (once) the report artifacts at the configured worker
// count. report.ComputeWorkers is deterministic across worker counts,
// so the artifact bytes are the same at -workers 1, 4, or 8.
func (s *Service) results() (*report.Results, error) {
	s.resOnce.Do(func() {
		defer func() {
			if p := recover(); p != nil {
				s.resErr = fmt.Errorf("report computation panicked: %v", p)
			}
		}()
		s.res = report.ComputeWorkers(s.corpus.DataSet(), s.cfg.Workers)
	})
	return s.res, s.resErr
}

// reportBody is the /v1/report response.
type reportBody struct {
	Corpus    string   `json:"corpus_sha256"`
	Artifact  string   `json:"artifact,omitempty"`
	Text      string   `json:"text,omitempty"`
	Available []string `json:"available,omitempty"`
}

func (s *Service) handleReport(ctx context.Context, w http.ResponseWriter, r *http.Request, sp *trace.Span) {
	name := strings.ToLower(strings.TrimSpace(r.URL.Query().Get("artifact")))
	if name == "" {
		// The artifact index never depends on the corpus content, but
		// caching it keeps the serving path uniform.
		key := keyFor(s.corpus.SHA, "report|index")
		if body, ok := s.cache.Get(key); ok {
			sp.Annotate("cache", "hit")
			writeJSON(w, http.StatusOK, body)
			return
		}
		sp.Annotate("cache", "miss")
		names := report.Names()
		sort.Strings(names)
		body, _ := json.Marshal(reportBody{Corpus: s.corpus.SHAHex(), Available: names})
		body = append(body, '\n')
		s.cache.Put(key, body)
		writeJSON(w, http.StatusOK, body)
		return
	}
	sec, ok := report.Lookup(name)
	if !ok {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown artifact %q", name))
		return
	}
	key := keyFor(s.corpus.SHA, "report|artifact="+name)
	if body, ok := s.cache.Get(key); ok {
		sp.Annotate("cache", "hit")
		writeJSON(w, http.StatusOK, body)
		return
	}
	sp.Annotate("cache", "miss")
	compute := sp.Child("compute")
	res, err := s.results()
	compute.Finish()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if ctx.Err() != nil {
		s.timeouts.Inc()
		writeError(w, http.StatusGatewayTimeout, "report exceeded the request deadline")
		return
	}
	text, err := sec.Render(res, s.corpus.Parts().Snaps)
	if err != nil {
		// Only §5 fails, on a bad snapshot record. Nothing is cached,
		// so the next request renders again.
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	body, err := json.Marshal(reportBody{Corpus: s.corpus.SHAHex(), Artifact: name, Text: text})
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	body = append(body, '\n')
	s.cache.Put(key, body)
	writeJSON(w, http.StatusOK, body)
}

// statsBody is the /v1/stats response. It reports live state (cache
// residency, uptime) so it is the one endpoint exempt from caching.
type statsBody struct {
	Corpus       string `json:"corpus_sha256"`
	Dir          string `json:"dir"`
	Machines     int    `json:"machines"`
	Records      int    `json:"records"`
	Snapshots    int    `json:"snapshots"`
	CacheEntries int    `json:"cache_entries"`
	Workers      int    `json:"workers"`
	UptimeSec    int64  `json:"uptime_sec"`
}

func (s *Service) handleStats(ctx context.Context, w http.ResponseWriter, r *http.Request, sp *trace.Span) {
	body, err := json.Marshal(statsBody{
		Corpus:       s.corpus.SHAHex(),
		Dir:          s.corpus.Dir,
		Machines:     len(s.corpus.Machines()),
		Records:      s.corpus.TotalRecords(),
		Snapshots:    len(s.corpus.Parts().Snaps),
		CacheEntries: s.cache.Len(),
		Workers:      s.cfg.Workers,
		UptimeSec:    int64(time.Since(s.startedAt).Seconds()),
	})
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, append(body, '\n'))
}
