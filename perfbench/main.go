// Command perfbench is the repository benchmark. It drives the study
// pipeline only through its public entry points, on one of three seeded
// workloads:
//
//	reproduce  seed → core.NewStudy → Run → Save → DataSet →
//	           report.ComputeWorkers → every report section (fsreport)
//	analyze    repeated core.LoadCorpus → compute → render of a saved
//	           corpus (fsreport -in)
//	serve      an open-loop, then closed-loop, seeded query mix against
//	           query.NewService over loopback HTTP (fsqueryd)
//
// With -trace 0 it measures the end-to-end metrics with every piece of
// instrumentation off. With -trace 1 it runs the same workload untraced
// for a baseline, then once more with obs metrics, span tracing and a CPU
// profile switched on, and reports per-layer metrics. The last line of
// standard output is one JSON object: correct, attempted, failed, metrics.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload analyze --seed 3 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees, reported by every
// workload with tracing off. Each workload's unit operation differs: one
// seed-to-report pipeline (reproduce), one load-compute-render pass
// (analyze), one HTTP request at the fixed offered rate (serve).
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"throughput_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics. Every workload reports all of
// them; a layer the workload does not exercise reads 0.
func perLayer() []metricSpec {
	specs := []metricSpec{
		// Simulator, on reproduce.
		{"fsgen.build_s", "s"},
		{"fleet.run_s", "s"},
		{"fleet.shard_wall_max_over_mean", "ratio"},
		{"sim.host_ns_per_event", "ns"},
		{"sim.events", "count"},
		{"iomgr.irp_dispatches", "count"},
		{"iomgr.fastio_hit_ratio", "ratio"},
		{"cachemgr.read_hit_ratio", "ratio"},
		{"cachemgr.readahead_used_ratio", "ratio"},
		{"cachemgr.lazy_write_bursts", "count"},
		{"tracedrv.records", "count"},
		{"tracedrv.overflow_records", "count"},
		// Save, on reproduce.
		{"core.save_s", "s"},
		{"colstore.encode_s", "s"},
		{"colstore.bytes_per_record", "B"},
		{"collect.deflate_bytes_per_record", "B"},
		{"snapshot.bytes_per_machine", "B"},
		// Load, on analyze and serve.
		{"core.load_s", "s"},
		{"snapshot.read_s", "s"},
		{"analysis.columnar_load_s", "s"},
		{"analysis.scan_s", "s"},
		{"analysis.argsort_s", "s"},
		{"analysis.gather_s", "s"},
		{"colstore.blocks_scanned", "count"},
		{"colstore.bytes_decoded", "B"},
		// Compute and render, on reproduce (row kernels) and analyze
		// (columnar kernels).
		{"analysis.decode_s", "s"},
		{"report.compute_s", "s"},
		{"report.kernel.instances_s", "s"},
		{"report.kernel.lifetimes_s", "s"},
		{"report.kernel.controls_s", "s"},
		{"report.kernel.cache_s", "s"},
		{"report.kernel.reuse_s", "s"},
		{"report.kernel.fastio_s", "s"},
		{"report.render_s", "s"},
		{"cachesim.sweep_s", "s"},
		// Serving, on serve.
		{"query.cache_hit_ratio", "ratio"},
		{"query.hit_us_p50", "us"},
		{"query.admit_wait_ms_p99", "ms"},
		{"query.scan_ms_p50", "ms"},
		{"query.scan_fanout_skew", "ratio"},
		{"query.merge_ms_p50", "ms"},
		{"query.encode_ms_p50", "ms"},
		{"colstore.blocks_skipped_ratio", "ratio"},
		{"query.cache_evictions", "count"},
		{"query.rejected", "count"},
		{"query.timeouts", "count"},
		{"loadgen.late_p99_ms", "ms"},
		// Every workload.
		{"trace.overhead_pct", "%"},
		{"failed_pct", "%"},
	}
	for _, m := range cpuBuckets {
		specs = append(specs, metricSpec{"cpu." + m, "%"})
	}
	return specs
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run is the state one workload invocation accumulates: outcome counts,
// measured values, and the environment stamp.
type run struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	work     string // scratch directory, removed at exit
	out      string // durable output directory (.bench_out)

	attempted, failed int
	problems          []string
	values            map[string]float64
	params            map[string]any

	pins *seedPins // the seed's expected outputs, nil when not pinned
}

func newRun(cwd, workload string, seed uint64, secs float64, traced bool) *run {
	return &run{
		workload: workload,
		seed:     seed,
		seconds:  secs,
		traced:   traced,
		work:     filepath.Join(cwd, ".bench_work", fmt.Sprintf("%s-%d-%d", workload, seed, os.Getpid())),
		out:      filepath.Join(cwd, ".bench_out"),
		values:   map[string]float64{},
		params:   map[string]any{},
	}
}

// check counts one checked operation and records why it failed.
func (r *run) check(ok bool, format string, args ...any) bool {
	r.attempted++
	if !ok {
		r.failed++
		if len(r.problems) < 20 {
			r.problems = append(r.problems, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

func (r *run) set(name string, v float64) { r.values[name] = v }

// setOps reports the median and upper quartile of a run's operation
// times and stamps every one of them. A run holds four to seven
// operations, so its slowest is one operation, and the host's speed
// drifts within a run: taken as the tail, the slowest spread 0.20 over
// ten seeds of reproduce, where the upper quartile of the same runs
// spread 0.14.
func (r *run) setOps(ops []float64) {
	r.params["iterations"] = len(ops)
	r.params["op_ms"] = ops
	r.set("op_p50_ms", median(ops))
	r.set("op_tail_ms", quantile(ops, 0.75))
}

func main() {
	var (
		workload = flag.String("workload", "", "reproduce, analyze or serve")
		seed     = flag.Uint64("seed", 1, "workload seed")
		secs     = flag.Float64("seconds", 20, "measured seconds per run")
		traceOn  = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		buildDir = flag.String("build-corpus", "", "internal: build the seed's corpus into this directory and exit")
		pinSeeds = flag.String("pin-seeds", "", "print the pin file for these seeds (e.g. 1-32) and exit")
	)
	flag.Parse()

	if *pinSeeds != "" {
		seedList, err := parseSeeds(*pinSeeds)
		if err == nil {
			err = writePins(seedList)
		}
		if err != nil {
			fatal(err)
		}
		return
	}

	if *buildDir != "" {
		if err := buildCorpus(*buildDir, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: build corpus:", err)
			os.Exit(1)
		}
		return
	}

	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	r := newRun(cwd, *workload, *seed, *secs, *traceOn == 1)
	var body func(*run) error
	switch *workload {
	case "reproduce":
		body = runReproduce
	case "analyze":
		body = runAnalyze
	case "serve":
		body = runServe
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want reproduce, analyze or serve)\n", *workload)
		os.Exit(2)
	}
	if *traceOn != 0 && *traceOn != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	if *secs <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive")
		os.Exit(2)
	}
	if r.pins, err = pinsFor(r.seed); err != nil {
		fatal(err)
	}
	r.params["pinned"] = r.pins != nil
	if err := os.MkdirAll(r.work, 0o755); err != nil {
		fatal(err)
	}
	err = body(r)
	os.RemoveAll(r.work)
	os.Remove(filepath.Dir(r.work)) // only succeeds when no other run is using it
	if err != nil {
		fatal(err)
	}
	r.finish()
}

// finish prints the environment stamp and the result line. A metric the
// workload does not exercise reports 0 in the per-layer set; every
// end-to-end metric must have been measured.
func (r *run) finish() {
	r.set("failed_pct", 100*float64(r.failed)/math.Max(1, float64(r.attempted)))
	specs := endToEnd
	if r.traced {
		specs = perLayer()
	}
	res := result{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	for _, s := range specs {
		v, ok := r.values[s.name]
		if !ok && !r.traced {
			fatal(fmt.Errorf("end-to-end metric %s was not measured", s.name))
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[s.name] = metric{Value: v, Unit: s.unit}
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	stamp := r.stamp()
	stampJSON, _ := json.Marshal(map[string]any{"env": stamp})
	fmt.Println(string(stampJSON))
	if err := writeJSONFile(filepath.Join(r.out, fmt.Sprintf("%s-seed%d-trace%d.json", r.workload, r.seed, b2i(r.traced))),
		map[string]any{"env": stamp, "result": res}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: write result:", err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// stamp records what the numbers depend on besides the code.
func (r *run) stamp() map[string]any {
	s := map[string]any{
		"workload":   r.workload,
		"seed":       r.seed,
		"seconds":    r.seconds,
		"trace":      b2i(r.traced),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
		"commit":     gitCommit(),
		"time":       time.Now().UTC().Format(time.RFC3339),
	}
	for k, v := range r.params {
		s[k] = v
	}
	return s
}

// parseSeeds reads a seed list such as "1-32" or "1,5,9-11".
func parseSeeds(spec string) ([]uint64, error) {
	var out []uint64
	for _, part := range strings.Split(spec, ",") {
		lo, hi, isRange := strings.Cut(part, "-")
		a, err := strconv.ParseUint(lo, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("seed list %q: %w", spec, err)
		}
		b := a
		if isRange {
			if b, err = strconv.ParseUint(hi, 10, 64); err != nil {
				return nil, fmt.Errorf("seed list %q: %w", spec, err)
			}
		}
		for s := a; s <= b; s++ {
			out = append(out, s)
		}
	}
	return out, nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func writeJSONFile(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// workers is the fan-out width for simulation, decode, compute and
// connections: one per CPU the process may use.
func workers() int {
	n := runtime.NumCPU()
	if g := runtime.GOMAXPROCS(0); g < n {
		n = g
	}
	return n
}

// median and quantile work on a copy; empty input yields 0.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

func seconds(d time.Duration) float64 { return d.Seconds() }
func millis(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }

// freshHeap returns the heap to the OS and restarts the resident-set
// high-water mark, so the operation that follows pays page faults and
// reaches a peak of its own, as it would in a fresh process.
func freshHeap() {
	debug.FreeOSMemory()
	// Writing 5 to clear_refs resets VmHWM to the current RSS (Linux).
	// Where that fails the peak stays the process's, an overestimate.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		var kb float64
		if n, _ := fmt.Sscanf(line, "VmHWM: %f kB", &kb); n == 1 {
			return kb / 1024
		}
	}
	return 0
}
