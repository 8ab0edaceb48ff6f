package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/trace"
)

// tracing is the instrumentation a traced run switches on through public
// configuration: one obs registry, one span tracer whose flight recorder
// keeps every trace of the run in memory, and a CPU profile. The
// benchmark's own spans (family "bench") wrap each public call it makes.
// A nil *tracing is the untraced run: every method is a no-op returning
// nil instruments, which the program treats as "off".
type tracing struct {
	reg         *obs.Registry
	tr          *trace.Tracer
	profile     string
	profileFile *os.File
	seq         uint64

	// The colstore ledger when serving began.
	startScanned, startSkipped, startDecoded float64
}

func startTracing(r *run) (*tracing, error) {
	if err := os.MkdirAll(r.out, 0o755); err != nil {
		return nil, err
	}
	return &tracing{
		reg:     obs.NewRegistry(),
		tr:      trace.New(trace.Config{Recent: 1 << 22}),
		profile: filepath.Join(r.out, fmt.Sprintf("%s-seed%d-cpu.pprof", r.workload, r.seed)),
	}, nil
}

// startProfile begins the CPU profile the module attribution reads.
func (tc *tracing) startProfile() error {
	f, err := os.Create(tc.profile)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	tc.profileFile = f
	return nil
}

// stopProfile ends the CPU profile, if one is running, and closes its file.
func (tc *tracing) stopProfile() error {
	if tc.profileFile == nil {
		return nil
	}
	pprof.StopCPUProfile()
	err := tc.profileFile.Close()
	tc.profileFile = nil
	return err
}

func (tc *tracing) registry() *obs.Registry {
	if tc == nil {
		return nil
	}
	return tc.reg
}

func (tc *tracing) tracer() *trace.Tracer {
	if tc == nil {
		return nil
	}
	return tc.tr
}

// span opens one of the benchmark's own root spans.
func (tc *tracing) span(name string) *trace.Span {
	if tc == nil {
		return nil
	}
	tc.seq++
	return tc.tr.StartTrace("bench", name, trace.MixID(trace.HashID("bench", name), tc.seq), nil)
}

// tracedRun is the -trace 1 shape shared by every workload: untraced
// repetitions of op for about half the run give the baseline, then one
// instrumented repetition gives the per-layer metrics, and the ratio of
// the two walls is the tracing overhead.
func tracedRun(r *run, op func(tc *tracing) (time.Duration, error)) error {
	var base []float64
	start := time.Now()
	for len(base) == 0 || time.Since(start).Seconds() < r.seconds/2 {
		freshHeap()
		d, err := op(nil)
		if err != nil {
			return err
		}
		base = append(base, seconds(d))
	}
	freshHeap()
	tc, err := startTracing(r)
	if err != nil {
		return err
	}
	if err := tc.startProfile(); err != nil {
		return err
	}
	d, err := op(tc)
	if perr := tc.stopProfile(); err == nil {
		err = perr
	}
	if err != nil {
		return err
	}
	r.params["baseline_iterations"] = len(base)
	r.set("trace.overhead_pct", 100*(seconds(d)/median(base)-1))
	if err := tc.attributeCPU(r); err != nil {
		return err
	}
	return tc.writeSpans(r)
}

// writeSpans stores every trace the run recorded — the benchmark's own
// and the program's — as one JSON file beside the CPU profile.
func (tc *tracing) writeSpans(r *run) error {
	return writeJSONFile(filepath.Join(r.out, fmt.Sprintf("%s-seed%d-spans.json", r.workload, r.seed)), tc.tr.Recent(0))
}

// traces returns the recorded traces of one family, oldest first.
func (tc *tracing) traces(family string) []trace.TraceSnapshot {
	var out []trace.TraceSnapshot
	for _, t := range tc.tr.Recent(0) {
		if t.Family == family {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// benchSpan finds the benchmark's own span of that name (latest wins).
func (tc *tracing) benchSpan(name string) (trace.SpanSnapshot, bool) {
	var found trace.SpanSnapshot
	ok := false
	for _, t := range tc.traces("bench") {
		for _, s := range t.Spans {
			if s.Name == name {
				found, ok = s, true
			}
		}
	}
	return found, ok
}

func (tc *tracing) benchSeconds(name string) float64 {
	s, _ := tc.benchSpan(name)
	return float64(s.Duration()) / 1e9
}

// childSums adds up, per child-span name, the durations of the children
// of every root in traces: the per-stage time of a fan-out, summed over
// machines (not wall time when the fan-out ran in parallel).
func childSums(traces []trace.TraceSnapshot) (roots float64, children map[string]float64) {
	children = map[string]float64{}
	for _, t := range traces {
		roots += float64(t.Duration()) / 1e9
		for _, s := range t.Spans {
			if s.SpanID != t.TraceID {
				children[s.Name] += float64(s.Duration()) / 1e9
			}
		}
	}
	return roots, children
}

// within keeps the traces that ran inside the given span.
func within(traces []trace.TraceSnapshot, outer trace.SpanSnapshot) []trace.TraceSnapshot {
	var out []trace.TraceSnapshot
	for _, t := range traces {
		if t.Start >= outer.Start && t.End <= outer.End {
			out = append(out, t)
		}
	}
	return out
}

// tailSelf is the part of outer after the last of the inner traces ended:
// the self time outer spends once its children are done.
func tailSelf(outer trace.SpanSnapshot, inner []trace.TraceSnapshot) float64 {
	last := outer.Start
	for _, t := range inner {
		if t.End > last {
			last = t.End
		}
	}
	return float64(outer.End-last) / 1e9
}

// computeMetrics reads the report fan-out's kernel spans and the
// benchmark's compute and render spans.
func (tc *tracing) computeMetrics(r *run) {
	r.set("report.compute_s", tc.benchSeconds("report.ComputeWorkers"))
	outer, _ := tc.benchSpan("report.ComputeWorkers")
	_, kernels := childSums(within(tc.traces("compute"), outer))
	for _, k := range []string{"instances", "lifetimes", "controls", "cache", "reuse", "fastio"} {
		r.set("report.kernel."+k+"_s", kernels[k])
	}
	r.set("report.render_s", tc.benchSeconds("report.render"))
	r.set("cachesim.sweep_s", tc.benchSeconds("report.CacheSweep"))
}

// snapshotOf reads the registry once; value and histogram lookups below
// work on it.
type regSnapshot struct{ fams map[string]obs.FamilySnapshot }

func (tc *tracing) snapshot() regSnapshot {
	out := regSnapshot{fams: map[string]obs.FamilySnapshot{}}
	for _, f := range tc.reg.TakeSnapshot().Families {
		out.fams[f.Name] = f
	}
	return out
}

// value sums a family's series values (0 when absent).
func (s regSnapshot) value(name string) float64 {
	v := 0.0
	for _, ser := range s.fams[name].Series {
		if ser.Value != nil {
			v += *ser.Value
		}
	}
	return v
}

// histSum sums a histogram family's observations (0 when absent).
func (s regSnapshot) histSum(name string) float64 {
	v := 0.0
	for _, ser := range s.fams[name].Series {
		if ser.Hist != nil {
			v += float64(ser.Hist.Sum)
		}
	}
	return v
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// reproduceMetrics reads the simulator, save and compute layers after one
// instrumented pipeline.
func (tc *tracing) reproduceMetrics(r *run, study *core.Study, dir string, records int) {
	reg := tc.snapshot()
	r.set("fsgen.build_s", tc.benchSeconds("core.NewStudy"))
	r.set("fleet.run_s", tc.benchSeconds("Study.Run"))
	st := study.Engine.Status()
	var walls []float64
	var hostNS float64
	for _, sh := range st.Shards {
		walls = append(walls, float64(sh.Wall))
		hostNS += float64(sh.Wall)
	}
	meanWall := 0.0
	for _, w := range walls {
		meanWall += w / float64(len(walls))
	}
	r.set("fleet.shard_wall_max_over_mean", ratio(maxOf(walls), meanWall))
	r.set("sim.events", float64(st.Events))
	r.set("sim.host_ns_per_event", ratio(hostNS, float64(st.Events)))
	r.set("iomgr.irp_dispatches", reg.value("iomgr_irp_dispatches_total"))
	r.set("iomgr.fastio_hit_ratio", ratio(reg.value("iomgr_fastio_hits_total"), reg.value("iomgr_fastio_attempts_total")))
	r.set("cachemgr.read_hit_ratio", ratio(reg.value("cachemgr_read_hits_total"), reg.value("cachemgr_read_requests_total")))
	r.set("cachemgr.readahead_used_ratio", ratio(reg.value("cachemgr_readahead_used_pages_total"), reg.value("cachemgr_readahead_bytes_total")/4096))
	r.set("cachemgr.lazy_write_bursts", reg.value("cachemgr_lazy_write_bursts_total"))
	r.set("tracedrv.records", reg.value("tracedrv_records_total"))
	r.set("tracedrv.overflow_records", reg.value("tracedrv_overflow_records_total"))

	r.set("core.save_s", tc.benchSeconds("Study.Save"))
	r.set("colstore.encode_s", reg.histSum("colstore_encode_block_us")/1e6)
	r.set("colstore.bytes_per_record", ratio(float64(dirBytes(dir, ".fsc")), float64(records)))
	r.set("collect.deflate_bytes_per_record", ratio(float64(study.Store.CompressedBytes()), float64(records)))
	r.set("snapshot.bytes_per_machine", ratio(float64(dirBytes(dir, ".snap.json")), float64(fleetMachines)))

	r.set("analysis.decode_s", tc.benchSeconds("Study.DataSet"))
	tc.computeMetrics(r)
}

// loadMetrics reads the corpus-load layers after one instrumented
// core.LoadCorpusTrace: the program's per-machine "load" spans give the
// columnar load and its stages; what the load span spends after the last
// machine finished is the snapshot decode.
func (tc *tracing) loadMetrics(r *run) {
	reg := tc.snapshot()
	outer, _ := tc.benchSpan("core.LoadCorpus")
	loads := within(tc.traces("load"), outer)
	roots, stages := childSums(loads)
	r.set("core.load_s", float64(outer.Duration())/1e9)
	r.set("snapshot.read_s", tailSelf(outer, loads))
	r.set("analysis.columnar_load_s", roots)
	r.set("analysis.scan_s", stages["scan"])
	r.set("analysis.argsort_s", stages["argsort"])
	r.set("analysis.gather_s", stages["gather"])
	r.set("colstore.blocks_scanned", reg.value("colstore_blocks_scanned_total"))
	r.set("colstore.bytes_decoded", reg.value("colstore_bytes_decoded_total"))
}

func dirBytes(dir, suffix string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), suffix) {
			continue
		}
		if info, err := e.Info(); err == nil {
			n += info.Size()
		}
	}
	return n
}

// cpuModules are the layers CPU samples are credited to by name.
var cpuModules = []string{
	"fsgen", "sim", "iomgr", "fsdrv", "cachemgr", "vmmgr", "fsys", "filter",
	"workload", "tracedrv", "agent", "fleet",
	"collect", "colstore", "snapshot",
	"core", "analysis", "report", "cachesim", "stats",
	"query",
}

// cpuBuckets adds "repo_other" (the repo's remaining packages: obs,
// tracefmt, machine...), "runtime" (no repo frame, runtime leaf) and
// "other" (no repo frame) to cpuModules.
var cpuBuckets = append(slices.Clone(cpuModules), "repo_other", "runtime", "other")

const repoPrefix = "repro/internal/"

// moduleOf maps a function name to its repo module: the last element of
// its package path under repro/internal ("" outside the repo).
func moduleOf(fn string) string {
	if !strings.HasPrefix(fn, repoPrefix) {
		return ""
	}
	pkg := fn[len(repoPrefix):]
	if i := strings.IndexByte(pkg, '.'); i >= 0 {
		pkg = pkg[:i]
	}
	return pkg[strings.LastIndexByte(pkg, '/')+1:]
}

// attributeCPU credits every sample of the traced run's CPU profile to
// the innermost repro/internal frame on its stack, so time a module
// spends in runtime helpers (map iteration, allocation) counts as the
// module's. Stacks with no repo frame go to "runtime" when their leaf is
// in the runtime and to "other" otherwise (HTTP, JSON, the load
// generator). It reads the profile with the installed toolchain's
// `go tool pprof -traces`.
func (tc *tracing) attributeCPU(r *run) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command("go", "tool", "pprof", "-traces", exe, tc.profile)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("go tool pprof -traces: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	shares, total, err := creditSamples(out)
	if err != nil {
		return err
	}
	r.params["cpu_profile_samples_ms"] = total
	for _, m := range cpuBuckets {
		r.set("cpu."+m, 100*ratio(shares[m], total))
	}
	return nil
}

// creditSamples parses `go tool pprof -traces` text: blocks separated by
// dashed lines, the first line of each carrying the sample value and the
// leaf frame, the rest one caller frame per line (inlined callers
// included), leaf first.
func creditSamples(text []byte) (map[string]float64, float64, error) {
	shares := map[string]float64{}
	total := 0.0
	var value float64
	var frames []string
	flush := func() {
		if frames == nil {
			return
		}
		mod := ""
		for _, f := range frames {
			if mod = moduleOf(f); mod != "" {
				break
			}
		}
		switch {
		case mod != "" && !slices.Contains(cpuModules, mod):
			mod = "repo_other"
		case mod != "":
		case strings.HasPrefix(frames[0], "runtime.") || strings.HasPrefix(frames[0], "internal/runtime/"):
			mod = "runtime"
		default:
			mod = "other"
		}
		shares[mod] += value
		total += value
		frames = nil
	}
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			continue
		}
		if line == "" || !strings.HasPrefix(line, " ") {
			continue // header lines: File, Type, Time, Duration
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if frames == nil {
			if len(fields) < 2 {
				continue
			}
			v, err := parseDurationValue(fields[0])
			if err != nil {
				return nil, 0, fmt.Errorf("pprof traces: %q: %w", line, err)
			}
			value = v
			frames = []string{fields[1]}
			continue
		}
		frames = append(frames, fields[0])
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	if total == 0 {
		return nil, 0, fmt.Errorf("pprof traces: no samples in the CPU profile")
	}
	return shares, total, nil
}

// parseDurationValue reads a pprof sample value such as "10ms" or "1.5s"
// as milliseconds.
func parseDurationValue(s string) (float64, error) {
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, err
	}
	return millis(d), nil
}

func hexSum(b [32]byte) string { return fmt.Sprintf("%x", b[:]) }
