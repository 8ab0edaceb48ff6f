package main

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"net/url"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/query"
)

// Serving parameters. No query log of this service exists, so each is
// tied to something stated rather than measured traffic:
//
//   - The offered rate is fixed, so latency compares across commits at
//     equal load: a tenth of the closed-loop capacity measured on a 2-vCPU
//     reference host at the commit that introduced this workload, a light
//     load at which a request seldom queues behind another. Every run
//     stamps its own capacity and the offered share of it.
//   - The request split is query.RunLoad's (fsqueryd -load): 70% scans,
//     15% report artifacts, 15% machine listings, and its six artifacts.
//   - Hot scans have Zipf popularity with exponent 1, the skew the repo's
//     workload model gives application launches (internal/workload).
//   - Hot scans come from eight clients, each with a head of its own, and
//     each client sends an equal share of them. This is a choice made for
//     steadiness: with one head, its first entry took a fifth of the hot
//     scans, and which entry that was set the mean response size (4.9 KB
//     to 13 KB between seeds) and with it the serving rate, by up to a
//     third. Eight heads average eight such draws.
//   - One request in ten is a scan from the catalogue's cold tail, and the
//     other scans come from its warmed heads. This split is a choice, not
//     a measurement: it keeps op_p50_ms a cache hit and puts cold pushdown
//     scans above the upper quartile that op_tail_ms reports.
//   - The result cache has fsqueryd's default bound (64 MiB).
const (
	referenceCapacityRPS = 13500 // closed loop, 2-vCPU reference host, seed 1
	offeredShare         = 0.1
	offeredRPS           = offeredShare * referenceCapacityRPS
	servePhases          = 5   // open/closed rounds per session
	openShare            = 0.5 // share of the run spent in the open loop
	hotScans             = 64  // entries in one client's head, warmed in set-up
	hotHeads             = 8   // clients, each with its own head
	zipfExponent         = 1.0
	serveCacheBytes      = 64 << 20
)

// requestCycle is the request mix, in slots per cycle of 20, shuffled
// each cycle: 14 scans (12 from the heads, 2 from the tail), 3 report
// artifacts, 3 machine listings.
var requestCycle = []string{
	"cold", "cold",
	"hot", "hot", "hot", "hot", "hot", "hot", "hot", "hot", "hot", "hot", "hot", "hot",
	"report", "report", "report",
	"machines", "machines", "machines",
}

// Catalogue dimensions: kinds × time window × machine scope × projection
// × limit, each dealt from its own deck. The heads draw their scopes from
// all three; the tail only from the first two (one or two machines). That
// is a choice made for steadiness: a cold whole-fleet scan costs up to a
// hundred times a hit, so the few a run would draw would decide the tail
// alone. It turns the tail's third of whole-fleet scans, 1 scan in 21
// (2 of 14 scans × 1/3), into one- or two-machine scans.
var (
	catalogueKinds = []string{"", "Read", "Write", "Read,Write", "Create,Close", "LazyWrite",
		"ReadAhead", "QueryDirectory", "PagingRead,PagingWrite", "SetInformation,SetEndOfFile"}
	catalogueWindows = windows()
	catalogueScopes  = []string{"one", "two", "all"}
	catalogueCols    = []string{"kind,start", "kind,start,end", "start,length,offset", "kind,fileid,proc,status", "start,returned,filesize"}
	catalogueLimits  = []int{10, 50, 200}
	tailScopes       = 2 // the tail draws the first two catalogue scopes
	serveArtifacts   = []string{"table1", "table2", "figure2", "figure5", "section8", "process"}
)

// windows are the scan time windows: every span of whole simulated
// minutes, in minutes, and the zero value for the whole trace.
func windows() [][2]int {
	out := [][2]int{{}}
	for lo := 0; lo < simMinutes; lo++ {
		for hi := lo + 1; hi <= simMinutes; hi++ {
			out = append(out, [2]int{lo, hi})
		}
	}
	return out
}

// deck deals the indices 0..n-1 in a seeded order, reshuffling after
// each pass, so every value occurs equally often in the long run while
// the order is random.
type deck struct {
	rng  *rand.Rand
	perm []int
	pos  int
}

func newDeck(rng *rand.Rand, n int) *deck {
	return &deck{rng: rng, perm: rng.Perm(n)}
}

func (d *deck) next() int {
	if d.pos == len(d.perm) {
		d.rng.Shuffle(len(d.perm), func(i, j int) { d.perm[i], d.perm[j] = d.perm[j], d.perm[i] })
		d.pos = 0
	}
	d.pos++
	return d.perm[d.pos-1]
}

// mix is the seeded request stream. Scans come from a catalogue whose
// popularity is skewed: hotHeads heads of hotScans entries each, drawn
// with Zipf weights, which set-up puts in the result cache, and a long tail so
// large that a tail draw is almost always a cold pushdown scan. The request
// kinds and every catalogue dimension, machines included, are dealt from
// decks, so each seed asks for the same amount of each kind of work and
// only how the dimensions combine, and the order, differ.
type mix struct {
	rng                     *rand.Rand
	machines                []string
	hot                     [][]string // per client, most popular first
	cumProb                 []float64
	slots, heads            *deck
	kinds, windows, picks   *deck
	headScopes, tailScopes  *deck
	cols, limits, artifacts *deck
}

func newMix(seed uint64, machines []string) *mix {
	rng := rand.New(rand.NewPCG(seed, 0x5e7e))
	m := &mix{
		rng:        rng,
		machines:   machines,
		slots:      newDeck(rng, len(requestCycle)),
		heads:      newDeck(rng, hotHeads),
		kinds:      newDeck(rng, len(catalogueKinds)),
		windows:    newDeck(rng, len(catalogueWindows)),
		picks:      newDeck(rng, len(machines)),
		headScopes: newDeck(rng, len(catalogueScopes)),
		tailScopes: newDeck(rng, tailScopes),
		cols:       newDeck(rng, len(catalogueCols)),
		limits:     newDeck(rng, len(catalogueLimits)),
		artifacts:  newDeck(rng, len(serveArtifacts)),
	}
	seen := map[string]bool{}
	m.hot = make([][]string, hotHeads)
	for h := range m.hot {
		for len(m.hot[h]) < hotScans {
			if p := m.scan(m.headScopes); !seen[p] {
				seen[p] = true
				m.hot[h] = append(m.hot[h], p)
			}
		}
	}
	total := 0.0
	for i := range hotScans {
		total += math.Pow(float64(i+1), -zipfExponent)
		m.cumProb = append(m.cumProb, total)
	}
	for i := range m.cumProb {
		m.cumProb[i] /= total
	}
	return m
}

// scan deals one catalogue entry, its machine scope from scopes.
func (m *mix) scan(scopes *deck) string {
	q := url.Values{}
	if k := catalogueKinds[m.kinds.next()]; k != "" {
		q.Set("kinds", k)
	}
	if w := catalogueWindows[m.windows.next()]; w != [2]int{} {
		q.Set("min_h", fmt.Sprintf("%.4f", float64(w[0])/60))
		q.Set("max_h", fmt.Sprintf("%.4f", float64(w[1])/60))
	}
	switch catalogueScopes[scopes.next()] {
	case "one":
		q.Set("machine", m.machines[m.picks.next()])
	case "two":
		q.Set("machine", m.machines[m.picks.next()]+","+m.machines[m.picks.next()])
	}
	q.Set("cols", catalogueCols[m.cols.next()])
	q.Set("limit", fmt.Sprint(catalogueLimits[m.limits.next()]))
	return "/v1/scan?" + q.Encode()
}

func (m *mix) next() string {
	switch requestCycle[m.slots.next()] {
	case "cold":
		return m.scan(m.tailScopes)
	case "hot":
		return m.hot[m.heads.next()][sort.SearchFloat64s(m.cumProb, m.rng.Float64())]
	case "report":
		return "/v1/report?artifact=" + serveArtifacts[m.artifacts.next()]
	default:
		return "/v1/machines"
	}
}

// verifier requires every repeated request to return the bytes its first
// (cold) response returned.
type verifier struct {
	mu    sync.Mutex
	first map[string][sha256.Size]byte
}

func (v *verifier) check(path string, body []byte) bool {
	sum := sha256.Sum256(body)
	v.mu.Lock()
	defer v.mu.Unlock()
	if prev, ok := v.first[path]; ok {
		return prev == sum
	}
	v.first[path] = sum
	return true
}

// outcome is one request as the load generator saw it.
type outcome struct {
	latency, late time.Duration
	err           error
}

// server is one query.Service on a loopback listener with its client.
type server struct {
	svc    *query.Service
	srv    *http.Server
	base   string
	client *http.Client
	done   chan error
}

func startServer(svc *query.Service) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		svc:  svc,
		srv:  &http.Server{Handler: svc.Handler(), ReadHeaderTimeout: 10 * time.Second},
		base: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: workers(),
			MaxConnsPerHost:     workers(),
			DisableCompression:  true,
		}},
		done: make(chan error, 1),
	}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// stop drains the service, closes the listener and waits for Serve.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.client.CloseIdleConnections()
	if err := s.svc.Drain(ctx); err != nil {
		return err
	}
	if err := s.srv.Shutdown(ctx); err != nil {
		return err
	}
	if err := <-s.done; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

func (s *server) get(path string, v *verifier) error {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	if !v.check(path, body) {
		return fmt.Errorf("%s: body differs from its first response", path)
	}
	return nil
}

// openLoop sends paths evenly spaced at offeredRPS over at most workers()
// connections. A request waits for a free connection when all are busy;
// its latency runs from when it was due, so that wait counts, and late is
// how long after its due time it was sent.
func (s *server) openLoop(paths []string, v *verifier) []outcome {
	due := make([]time.Duration, len(paths))
	for i := range due {
		due[i] = time.Duration(float64(i+1) / offeredRPS * float64(time.Second))
	}
	out := make([]outcome, len(paths))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(paths) {
					return
				}
				dueAt := start.Add(due[i])
				time.Sleep(time.Until(dueAt))
				late := time.Since(dueAt)
				err := s.get(paths[i], v)
				out[i] = outcome{latency: time.Since(dueAt), late: late, err: err}
			}
		}()
	}
	wg.Wait()
	return out
}

// closedLoop keeps workers() clients busy back to back for d, drawing
// requests from m, and returns the outcomes in completion order.
func (s *server) closedLoop(m *mix, d time.Duration, v *verifier) []outcome {
	var mu sync.Mutex
	var out []outcome
	var wg sync.WaitGroup
	deadline := time.Now().Add(d)
	for w := 0; w < workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				mu.Lock()
				path := m.next()
				mu.Unlock()
				t0 := time.Now()
				err := s.get(path, v)
				o := outcome{latency: time.Since(t0), err: err}
				mu.Lock()
				out = append(out, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}

// serveResult is what one serving session measured.
type serveResult struct {
	open, closed []outcome
	closedWall   time.Duration
	startup      time.Duration // open the corpus, build the service, warm

	// Per round: the open loop's p99 latency and the closed loop's
	// wall-clock rate, both stamped only.
	roundP99, roundRate []float64

	// Per round: the closed loop's requests per CPU-second of this
	// process, server and load generator together. Its wall-clock rate
	// also counts the time both vCPUs sat idle, which changed from round
	// to round (CPU use of 1.47 or 1.86 of 2 on a 2-vCPU host) with the
	// same requests; the work a request costs does not.
	roundCPURate []float64
}

func latencies(outs []outcome) []float64 {
	out := make([]float64, len(outs))
	for i, o := range outs {
		out[i] = millis(o.latency)
	}
	return out
}

// capacity is the closed loop's completed requests per second.
func (res serveResult) capacity() float64 {
	return float64(len(res.closed)) / res.closedWall.Seconds()
}

// serveSession opens the corpus, starts a service on it (instrumented
// when tc is set), warms the once-per-process report results and the
// catalogue's heads, then runs the open loop and the closed loop over the
// same seeded request stream.
func serveSession(r *run, dir string, tc *tracing, openDur, closedDur time.Duration) (serveResult, error) {
	var res serveResult
	root := tc.span("serve.startup")
	t0 := time.Now()
	sp := root.Child("core.LoadCorpus")
	corpus, err := query.OpenCorpusTrace(dir, tc.registry(), tc.tracer())
	if err != nil {
		return res, err
	}
	sp.Finish()
	svc := query.NewService(corpus, query.Config{
		Workers:     workers(),
		CacheBytes:  serveCacheBytes,
		MaxInflight: workers(),
		Obs:         tc.registry(),
		Tracer:      tc.tracer(),
		Logf:        func(string, ...any) {},
	})
	s, err := startServer(svc)
	if err != nil {
		return res, err
	}
	v := &verifier{first: map[string][sha256.Size]byte{}}
	sp = root.Child("report.ComputeWorkers")
	err = s.get("/v1/report?artifact=table1", v)
	sp.Finish()
	// Fill the result cache with every report artifact and the catalogue's
	// heads, as a long-running service's would be, so the loops see its
	// steady state: hits on those, cold scans from the tail.
	m := newMix(r.seed, corpus.Machines())
	var warm []string
	for _, head := range m.hot {
		warm = append(warm, head...)
	}
	for _, a := range serveArtifacts {
		warm = append(warm, "/v1/report?artifact="+a)
	}
	sp = root.Child("warm cache")
	for i := 0; err == nil && i < len(warm); i++ {
		err = s.get(warm[i], v)
	}
	sp.Finish()
	root.Finish()
	res.startup = time.Since(t0)
	if err != nil {
		s.stop()
		return res, err
	}
	if tc != nil {
		if err := tc.markServing(); err != nil {
			s.stop()
			return res, err
		}
	}

	// The loops alternate in servePhases rounds, so each samples the whole
	// run and a slow stretch of the host falls on both alike. Each open
	// round starts from a collected heap: the closed loop allocates about
	// eight times as fast, so otherwise whether a collection (100-200 ms
	// of marking on a 2-vCPU host) falls inside an open round would depend
	// on the closed loop before it, and the round's p99 would flip between
	// about 2 ms and 7 ms on that alone.
	paths := make([]string, int(openDur.Seconds()*offeredRPS/servePhases))
	for range servePhases {
		for i := range paths {
			paths[i] = m.next()
		}
		runtime.GC()
		open := s.openLoop(paths, v)
		res.open = append(res.open, open...)
		res.roundP99 = append(res.roundP99, quantile(latencies(open), 0.99))
		t1, c1 := time.Now(), cpuTime()
		closed := s.closedLoop(m, closedDur/servePhases, v)
		wall, cpu := time.Since(t1), cpuTime()-c1
		res.roundCPURate = append(res.roundCPURate, float64(len(closed))/cpu.Seconds())
		res.closed = append(res.closed, closed...)
		res.closedWall += wall
		res.roundRate = append(res.roundRate, float64(len(closed))/wall.Seconds())
	}
	if err := s.stop(); err != nil {
		return res, err
	}
	for _, o := range append(res.open, res.closed...) {
		if o.err != nil {
			r.check(false, "%v", o.err)
		} else {
			r.check(true, "")
		}
	}
	r.params["open_requests"] = len(res.open)
	r.params["closed_requests"] = len(res.closed)
	return res, nil
}

// runServe builds the corpus, then serves it: set-up is the corpus build
// plus opening it and warming the report results.
func runServe(r *run) error {
	r.stampStudy()
	r.params["offered_rps"] = offeredRPS
	r.params["reference_capacity_rps"] = referenceCapacityRPS
	r.params["hot_scans"] = hotScans
	r.params["hot_heads"] = hotHeads
	r.params["zipf_exponent"] = zipfExponent
	scopes := 1 + fleetMachines + fleetMachines*fleetMachines
	r.params["catalogue_size"] = len(catalogueKinds) * len(catalogueWindows) * scopes * len(catalogueCols) * len(catalogueLimits)
	r.params["request_cycle"] = requestCycle
	r.params["connections"] = workers()
	r.params["cache_bytes"] = serveCacheBytes
	dir := filepath.Join(r.work, "corpus")
	build, err := setupCorpus(r, dir)
	if err != nil {
		return err
	}
	openDur := time.Duration(openShare * r.seconds * float64(time.Second))
	closedDur := time.Duration((1 - openShare) * r.seconds * float64(time.Second))
	if r.traced {
		return tracedServe(r, dir, openDur, closedDur)
	}
	res, err := serveSession(r, dir, nil, openDur, closedDur)
	if err != nil {
		return err
	}
	lat := latencies(res.open)
	r.params["open_p95_ms"] = quantile(lat, 0.95)
	r.params["open_p99_ms"] = quantile(lat, 0.99)
	r.params["round_p99_ms"] = res.roundP99
	r.params["round_capacity_rps"] = res.roundRate
	r.params["round_requests_per_cpu_s"] = res.roundCPURate
	r.params["offered_share_of_capacity"] = offeredRPS / median(res.roundRate)
	r.set("setup_s", seconds(build+res.startup))
	r.set("op_p50_ms", median(lat))
	// The tail is the upper quartile, as on the other workloads, not a
	// p95 or p99: at this light load an open-loop request mostly waits for
	// the host to wake an idle vCPU, and for whole runs at a time a busy
	// shared host delayed a few percent of requests by several ms. In
	// such a run the p95 rose from 1.3 ms to 4.4 ms and the p99 from 2 ms
	// to 7.5 ms, while the median rose by a sixth.
	r.set("op_tail_ms", quantile(lat, 0.75))
	r.set("throughput_per_s", median(res.roundCPURate))
	r.set("peak_rss_mb", peakRSSMB())
	return nil
}

// cpuTime is the CPU time this process has used, user and system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// tracedServe runs one untraced session for the capacity baseline, then
// one instrumented session for the per-layer metrics.
func tracedServe(r *run, dir string, openDur, closedDur time.Duration) error {
	base, err := serveSession(r, dir, nil, openDur/2, closedDur/2)
	if err != nil {
		return err
	}
	baseRate := base.capacity()
	runtime.GC()
	tc, err := startTracing(r)
	if err != nil {
		return err
	}
	res, err := serveSession(r, dir, tc, openDur/2, closedDur/2)
	if perr := tc.stopProfile(); err == nil {
		err = perr
	}
	if err != nil {
		return err
	}
	r.set("trace.overhead_pct", 100*(baseRate/res.capacity()-1))
	tc.loadMetrics(r)
	// The load's share of the ledger is exact; serving's depends on cache
	// timing and is reported as the skipped ratio below.
	r.set("colstore.blocks_scanned", tc.startScanned)
	r.set("colstore.bytes_decoded", tc.startDecoded)
	tc.serveMetrics(r, res)
	if err := tc.attributeCPU(r); err != nil {
		return err
	}
	return tc.writeSpans(r)
}

// markServing is the end of start-up: it reads the corpus load's share
// of the colstore ledger, so the serving share excludes it, and starts
// the CPU profile, so module shares describe serving alone.
func (tc *tracing) markServing() error {
	reg := tc.snapshot()
	tc.startScanned = reg.value("colstore_blocks_scanned_total")
	tc.startSkipped = reg.value("colstore_blocks_skipped_total")
	tc.startDecoded = reg.value("colstore_bytes_decoded_total")
	return tc.startProfile()
}

// serveMetrics reads the query layer's counters and request spans.
func (tc *tracing) serveMetrics(r *run, res serveResult) {
	reg := tc.snapshot()
	hits, misses := reg.value("query_cache_hits_total"), reg.value("query_cache_misses_total")
	r.set("query.cache_hit_ratio", ratio(hits, hits+misses))
	r.set("query.cache_evictions", reg.value("query_cache_evictions_total"))
	r.set("query.rejected", reg.value("query_rejected_total"))
	r.set("query.timeouts", reg.value("query_timeouts_total"))
	scanned := reg.value("colstore_blocks_scanned_total") - tc.startScanned
	skipped := reg.value("colstore_blocks_skipped_total") - tc.startSkipped
	r.set("colstore.blocks_skipped_ratio", ratio(skipped, scanned+skipped))

	var hitUS, admitMS, scanMS, mergeMS, encodeMS, skew []float64
	for _, t := range tc.tr.Recent(0) {
		if t.Family == "bench" || t.Family == "load" || t.Family == "compute" {
			continue
		}
		var scans []float64
		for _, sp := range t.Spans {
			d := float64(sp.Duration())
			switch {
			case sp.SpanID == t.TraceID:
				if sp.Attr("cache") == "hit" {
					hitUS = append(hitUS, d/1e3)
				}
			case sp.Name == "admit":
				admitMS = append(admitMS, d/1e6)
			case strings.HasPrefix(sp.Name, "scan "):
				scans = append(scans, d/1e6)
			case sp.Name == "merge":
				mergeMS = append(mergeMS, d/1e6)
			case sp.Name == "encode":
				encodeMS = append(encodeMS, d/1e6)
			}
		}
		scanMS = append(scanMS, scans...)
		if len(scans) > 1 {
			mean := 0.0
			for _, x := range scans {
				mean += x / float64(len(scans))
			}
			skew = append(skew, ratio(maxOf(scans), mean))
		}
	}
	r.set("query.hit_us_p50", median(hitUS))
	r.set("query.admit_wait_ms_p99", quantile(admitMS, 0.99))
	r.set("query.scan_ms_p50", median(scanMS))
	r.set("query.scan_fanout_skew", median(skew))
	r.set("query.merge_ms_p50", median(mergeMS))
	r.set("query.encode_ms_p50", median(encodeMS))
	var late []float64
	for _, o := range res.open {
		late = append(late, millis(o.late))
	}
	r.set("loadgen.late_p99_ms", quantile(late, 0.99))
}
