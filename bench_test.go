// Package repro holds the benchmark harness that regenerates every table
// and figure of the paper's evaluation. Each benchmark builds (once) a
// shared trace corpus from a reduced fleet, then measures the analysis
// that produces the artefact; key measured values are attached as custom
// benchmark metrics so `go test -bench` output doubles as a compact
// paper-versus-measured sheet. Ablation benchmarks re-run the study with
// one design choice removed (FastIO blocked, Poisson workload, no
// instance table) to show what the choice buys.
package repro

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/replay"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/stats"
	"repro/internal/synth"
	"repro/internal/tracefmt"
)

// corpus is the shared study output for the artefact benchmarks.
var (
	corpusOnce sync.Once
	corpusDS   *analysis.DataSet
	corpusRes  *report.Results
)

func corpus(b *testing.B) (*analysis.DataSet, *report.Results) {
	b.Helper()
	corpusOnce.Do(func() {
		s := core.NewStudy(core.Config{
			Seed:        1,
			Machines:    8,
			Duration:    3 * sim.Hour,
			WithNetwork: true,
		})
		if err := s.Run(); err != nil {
			panic(err)
		}
		ds, err := s.DataSet()
		if err != nil {
			panic(err)
		}
		corpusDS = ds
		corpusRes = report.ComputeWorkers(ds, runtime.GOMAXPROCS(0))
	})
	return corpusDS, corpusRes
}

// BenchmarkStudyGeneration measures the full §2/§3 pipeline: fleet
// assembly, content generation, workload simulation and trace collection.
func BenchmarkStudyGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := core.NewStudy(core.Config{
			Seed: uint64(i) + 2, Machines: 2, Duration: 30 * sim.Minute,
		})
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(s.TotalEvents()), "events")
	}
}

// BenchmarkTable1 regenerates the summary-of-observations sheet.
func BenchmarkTable1(b *testing.B) {
	_, r := corpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Table1()
	}
	b.ReportMetric(100*r.Controls.ControlFraction(), "control_open_pct(paper:74)")
	b.ReportMetric(100*r.Cache.CacheHitFraction(), "cache_hit_pct(paper:60)")
}

// BenchmarkTable2 regenerates the user-activity table.
func BenchmarkTable2(b *testing.B) {
	ds, _ := corpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row := analysis.UserActivity(ds, 10*sim.Minute, 4096)
		if i == 0 {
			b.ReportMetric(row.AvgThroughputKBs, "user_KBs_10min(paper:24.4)")
			b.ReportMetric(float64(row.MaxActiveUsers), "max_active(paper:45)")
		}
	}
}

// BenchmarkTable3 regenerates the access-pattern matrix.
func BenchmarkTable3(b *testing.B) {
	_, r := corpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pt := analysis.AccessPatterns(r.All)
		if i == 0 {
			b.ReportMetric(pt.ClassAccesses[analysis.AccessReadOnly], "ro_access_pct(paper:79)")
			b.ReportMetric(pt.Cells[analysis.AccessReadOnly][analysis.PatternWholeFile].Accesses,
				"ro_wholefile_pct(paper:68)")
		}
	}
}

// BenchmarkFigure1 regenerates the run-length CDF (by runs).
func BenchmarkFigure1(b *testing.B) {
	_, r := corpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		readRuns, _ := analysis.RunLengths(r.All)
		c := stats.NewCDF(readRuns)
		if i == 0 {
			b.ReportMetric(c.Quantile(0.8), "run_p80_bytes(paper:~11K)")
		}
	}
}

// BenchmarkFigure2 regenerates the run-length CDF (by bytes).
func BenchmarkFigure2(b *testing.B) {
	_, r := corpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		readRuns, _ := analysis.RunLengths(r.All)
		_ = stats.NewWeightedCDF(readRuns, readRuns)
	}
}

// BenchmarkFigure3 regenerates the file-size CDF weighted by opens.
func BenchmarkFigure3(b *testing.B) {
	_, r := corpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		byClass := analysis.FileSizeByClass(r.All)
		if i == 0 {
			var sizes []float64
			for _, ss := range byClass {
				for _, s := range ss {
					sizes = append(sizes, s.Size)
				}
			}
			c := stats.NewCDF(sizes)
			b.ReportMetric(100*c.At(26*1024), "under26KB_pct(paper:80)")
		}
	}
}

// BenchmarkFigure4 regenerates the file-size CDF weighted by bytes.
func BenchmarkFigure4(b *testing.B) {
	_, r := corpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Figure4()
	}
}

// BenchmarkFigure5 regenerates the open-time CDF.
func BenchmarkFigure5(b *testing.B) {
	_, r := corpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := r.HoldCDF(analysis.DataSessions)
		if i == 0 {
			b.ReportMetric(100*c.At(10), "open_lt10ms_pct(paper:75)")
		}
	}
}

// BenchmarkFigure6 regenerates new-file lifetimes by deletion method.
func BenchmarkFigure6(b *testing.B) {
	ds, _ := corpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var merged analysis.LifetimeStats
		for _, mt := range ds.Machines {
			ls := analysis.Lifetimes(mt)
			merged.Samples = append(merged.Samples, ls.Samples...)
			merged.Births += ls.Births
		}
		if i == 0 {
			b.ReportMetric(100*merged.MethodShare(analysis.DeleteExplicit), "explicit_pct(paper:62)")
			b.ReportMetric(100*merged.DeadWithin(5*sim.Second), "dead5s_pct(paper:~81)")
		}
	}
}

// BenchmarkFigure7 regenerates the lifetime-vs-size correlation test.
func BenchmarkFigure7(b *testing.B) {
	_, r := corpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Figure7()
	}
}

// BenchmarkFigure8 regenerates the multi-scale arrival comparison.
func BenchmarkFigure8(b *testing.B) {
	_, r := corpus(b)
	mt := r.OpenGapSampleMachine()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gaps := analysis.AllOpenGaps(mt)
		d100 := stats.IndexOfDispersion(stats.BinCounts(gaps, 100))
		synth := stats.PoissonSynth(gaps, len(gaps), 9)
		p100 := stats.IndexOfDispersion(stats.BinCounts(synth, 100))
		if i == 0 {
			b.ReportMetric(d100/p100, "dispersion_ratio_100s(paper:>>1)")
		}
	}
}

// BenchmarkFigure9 regenerates the QQ comparison.
func BenchmarkFigure9(b *testing.B) {
	_, r := corpus(b)
	mt := r.OpenGapSampleMachine()
	gaps := analysis.AllOpenGaps(mt)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		devN := stats.QQDeviation(stats.QQNormal(gaps, 200))
		devP := stats.QQDeviation(stats.QQPareto(gaps, 200))
		if i == 0 {
			b.ReportMetric(devN/devP, "normal_vs_pareto_misfit(paper:>>1)")
		}
	}
}

// BenchmarkFigure10 regenerates the LLCD tail fit and Hill estimate.
func BenchmarkFigure10(b *testing.B) {
	_, r := corpus(b)
	mt := r.OpenGapSampleMachine()
	gaps := analysis.AllOpenGaps(mt)
	ms := make([]float64, len(gaps))
	for i, g := range gaps {
		ms[i] = g * 1000
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alpha := stats.Hill(ms, len(ms)/50+2)
		if i == 0 {
			b.ReportMetric(alpha, "hill_alpha(paper:1.2-1.7)")
		}
	}
}

// BenchmarkFigure11 regenerates open inter-arrival CDFs.
func BenchmarkFigure11(b *testing.B) {
	_, r := corpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Figure11()
	}
}

// BenchmarkFigure12 regenerates session-lifetime CDFs.
func BenchmarkFigure12(b *testing.B) {
	_, r := corpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := r.HoldCDF(nil)
		if i == 0 {
			b.ReportMetric(100*c.At(1), "closed_1ms_pct(paper:40)")
			b.ReportMetric(100*c.At(1000), "closed_1s_pct(paper:90)")
		}
	}
}

// BenchmarkFigure13 regenerates the per-request-type latency CDFs.
func BenchmarkFigure13(b *testing.B) {
	ds, _ := corpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var fast, irp []float64
		for _, mt := range ds.Machines {
			s := analysis.RequestClasses(mt)
			fast = append(fast, s.FastReadLatUS...)
			irp = append(irp, s.IrpReadLatUS...)
		}
		if i == 0 && len(fast) > 0 && len(irp) > 0 {
			f := stats.Summarize(fast)
			ir := stats.Summarize(irp)
			b.ReportMetric(ir.P50/f.P50, "irp_vs_fast_read_p50(paper:>1)")
		}
	}
}

// BenchmarkFigure14 regenerates the per-request-type size CDFs.
func BenchmarkFigure14(b *testing.B) {
	_, r := corpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Figure14()
	}
}

// BenchmarkSection8 regenerates the §8 operational summary.
func BenchmarkSection8(b *testing.B) {
	_, r := corpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Section8()
	}
	b.ReportMetric(100*r.Controls.FailureFraction(), "open_fail_pct(paper:12)")
}

// BenchmarkSection9 regenerates the cache-manager summary.
func BenchmarkSection9(b *testing.B) {
	_, r := corpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Section9()
	}
	b.ReportMetric(100*r.Cache.SinglePrefetchFraction(), "single_prefetch_pct(paper:92)")
}

// BenchmarkSection10 regenerates the FastIO summary.
func BenchmarkSection10(b *testing.B) {
	_, r := corpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Section10()
	}
	var rs, ws float64
	for _, v := range r.ReadShares {
		rs += v
	}
	for _, v := range r.WriteShares {
		ws += v
	}
	b.ReportMetric(100*rs/float64(len(r.ReadShares)), "fastio_read_pct(paper:59)")
	b.ReportMetric(100*ws/float64(len(r.WriteShares)), "fastio_write_pct(paper:96)")
}

// ledgerStudy is the study of the benchmark (perfbench's studyConfig):
// the paper's 45-machine mix with network shares and a day-0 snapshot,
// 5 simulated minutes, built on GOMAXPROCS workers.
func ledgerStudy() core.Config {
	return core.Config{
		Seed: 5, Machines: 45, Duration: 5 * sim.Minute,
		WithNetwork: true, SnapshotAtStart: true,
		Workers: runtime.GOMAXPROCS(0),
	}
}

// snapCorpus is the ledger study after its run, the shape fsreport -in
// reloads, saved once to a temporary directory for the §5, corpus-load
// and save benchmarks.
var (
	snapCorpusOnce  sync.Once
	snapCorpusDir   string
	snapCorpusStudy *core.Study
	snapCorpusErr   error
)

func snapCorpus(b *testing.B) (string, *core.Study) {
	b.Helper()
	snapCorpusOnce.Do(func() {
		s := core.NewStudy(ledgerStudy())
		if snapCorpusErr = s.Run(); snapCorpusErr != nil {
			return
		}
		if snapCorpusDir, snapCorpusErr = os.MkdirTemp("", "bench-corpus-"); snapCorpusErr != nil {
			return
		}
		snapCorpusErr = s.Save(snapCorpusDir)
		snapCorpusStudy = s
	})
	if snapCorpusErr != nil {
		b.Fatal(snapCorpusErr)
	}
	return snapCorpusDir, snapCorpusStudy
}

// TestMain removes the saved corpus snapCorpus leaves behind.
func TestMain(m *testing.M) {
	code := m.Run()
	if snapCorpusDir != "" {
		os.RemoveAll(snapCorpusDir)
	}
	os.Exit(code)
}

// BenchmarkSection5Snapshots renders §5 from the 45-machine day-0
// snapshot set: a census line per machine, the type decomposition of the
// largest volume and one day-over-day change attribution.
func BenchmarkSection5Snapshots(b *testing.B) {
	_, s := snapCorpus(b)
	r := &report.Results{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		section5Sink = r.Section5(s.Snapshots)
	}
	b.ReportMetric(float64(len(s.Snapshots)), "snapshots")
}

var section5Sink string

// BenchmarkRenderReport renders every section of the report perfbench
// times, then the cache-policy sweep at 1, 4 and 16 MB, from the ledger
// corpus reloaded and recomputed for each iteration outside the timer:
// the render half of an fsreport -in pass. sweep_ms and section5_ms
// split out its two fan-outs.
func BenchmarkRenderReport(b *testing.B) {
	dir, _ := snapCorpus(b)
	var sweep, section5 time.Duration
	var bytes int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c, err := core.LoadCorpusTrace(dir, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		r := report.ComputeWorkers(c.DS, runtime.GOMAXPROCS(0))
		b.StartTimer()
		bytes = 0
		for _, f := range []func() string{
			r.Table1, r.Table2, r.Table3,
			r.Figure1, r.Figure2, r.Figure3, r.Figure4, r.Figure5,
			r.Figure6, r.Figure7, r.Figure8, r.Figure9, r.Figure10,
			r.Figure11, r.Figure12, r.Figure13, r.Figure14,
			func() string {
				t0 := time.Now()
				defer func() { section5 += time.Since(t0) }()
				return r.Section5(c.Snaps)
			},
			r.Section6Lifetimes, r.Section8, r.Section9, r.Section10,
			r.Section7SelfSim, r.ProcessView, r.TypeView, r.FollowUps,
			func() string {
				t0 := time.Now()
				defer func() { sweep += time.Since(t0) }()
				return r.CacheSweep([]float64{1, 4, 16})
			},
		} {
			bytes += len(f())
		}
	}
	b.ReportMetric(float64(sweep.Milliseconds())/float64(b.N), "sweep_ms")
	b.ReportMetric(float64(section5.Milliseconds())/float64(b.N), "section5_ms")
	b.ReportMetric(float64(bytes), "report_bytes")
}

// BenchmarkLoadCorpus reloads the saved 45-machine columnar corpus with
// its snapshots, as fsreport -in and fsqueryd do before any analysis.
func BenchmarkLoadCorpus(b *testing.B) {
	dir, _ := snapCorpus(b)
	var c *core.Corpus
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if c, err = core.LoadCorpusTrace(dir, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(c.DS.Machines)), "machines")
	b.ReportMetric(float64(len(c.Snaps)), "snapshots")
}

// BenchmarkStudyBuild measures core.NewStudy on the ledger study: the 45
// machines' apparatus, most of it generating their local volumes and
// shares (fsgen).
func BenchmarkStudyBuild(b *testing.B) {
	b.ReportAllocs()
	var files int
	for i := 0; i < b.N; i++ {
		s := core.NewStudy(ledgerStudy())
		if i == 0 {
			for _, n := range s.Nodes {
				files += n.M.SystemVolume().FS.FileCount + n.ShareFS.FS.FileCount
			}
		}
	}
	b.ReportMetric(float64(files), "files")
}

// BenchmarkSnapshotWalk measures the snapshot walk of the ledger study's
// 45 local volumes. fresh is the first walk after the volumes are built
// (the build is outside the timer), in which every directory sorts its
// children; unchanged is a later walk with nothing changed since the
// last, which reads every directory's cached order and sorts nothing.
func BenchmarkSnapshotWalk(b *testing.B) {
	walk := func(s *core.Study) (records int) {
		for _, n := range s.Nodes {
			records += len(snapshot.Take(n.M.Name, `C:`, n.M.SystemVolume().FS, 0).Records)
		}
		return records
	}
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		var records int
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s := core.NewStudy(ledgerStudy())
			b.StartTimer()
			records = walk(s)
		}
		b.ReportMetric(float64(records), "records")
	})
	b.Run("unchanged", func(b *testing.B) {
		s := core.NewStudy(ledgerStudy())
		walk(s)
		b.ReportAllocs()
		b.ResetTimer()
		var records int
		for i := 0; i < b.N; i++ {
			records = walk(s)
		}
		b.ReportMetric(float64(records), "records")
	})
}

// BenchmarkStudySave measures Study.Save of the ledger study after its run
// (outside the timer) into a fresh directory each iteration: encoding
// every machine's segment and writing it, and writing every snapshot.
func BenchmarkStudySave(b *testing.B) {
	_, s := snapCorpus(b)
	root := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dir := filepath.Join(root, strconv.Itoa(i))
		if err := s.Save(dir); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := os.RemoveAll(dir); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(len(s.Snapshots)), "snapshots")
}

// BenchmarkSection3Apparatus measures the §3.2 apparatus envelope:
// records per simulated day and buffer fill behaviour.
func BenchmarkSection3Apparatus(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := core.NewStudy(core.Config{Seed: 6, Machines: 1, Duration: sim.Hour})
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(s.TotalEvents()*24), "events_per_day(paper:80K-1.4M)")
			b.ReportMetric(float64(s.Nodes[0].M.Volumes[0].Trace.Stats.Overflows), "overflows(paper:0)")
		}
	}
}

// --- Ablations (DESIGN.md §4) ---------------------------------------------

// BenchmarkAblationNoFastIO runs the study with an Opaque filter blocking
// the FastIO path: every data request rides the IRP path, demonstrating
// the §10 latency penalty.
func BenchmarkAblationNoFastIO(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := core.NewStudy(core.Config{
			Seed: 7, Machines: 2, Duration: sim.Hour, FastIOBlocked: true,
		})
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			r, err := s.Results()
			if err != nil {
				b.Fatal(err)
			}
			var rs float64
			for _, v := range r.ReadShares {
				rs += v
			}
			b.ReportMetric(100*rs/float64(len(r.ReadShares)), "fastio_read_pct(blocked:0)")
		}
	}
}

// BenchmarkAblationPoissonWorkload feeds the heavy-tail detectors with a
// Poisson/exponential arrival stream: the Hill estimate leaves the
// heavy-tail band, demonstrating the instrument detects rather than
// fabricates the §7 property.
func BenchmarkAblationPoissonWorkload(b *testing.B) {
	rng := sim.NewRNG(8)
	exp := dist.NewExponential(2.0)
	gaps := make([]float64, 200000)
	for i := range gaps {
		gaps[i] = exp.Sample(rng) * 1000
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alpha := stats.Hill(gaps, len(gaps)/50+2)
		if i == 0 {
			b.ReportMetric(alpha, "hill_alpha_poisson(light:>>2)")
		}
	}
}

// BenchmarkAblationNoInstanceTable scans the raw trace table for a
// statistic the instance table answers directly, demonstrating the §4
// two-fact-table design choice.
func BenchmarkAblationNoInstanceTable(b *testing.B) {
	ds, r := corpus(b)
	b.Run("instance-table", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			n := 0
			for _, in := range r.All {
				if in.IsDataSession() {
					n++
				}
			}
			_ = n
		}
	})
	b.Run("trace-scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// Recompute data-session count from raw records each time.
			seen := map[tracefmt.Record]bool{}
			_ = seen
			n := 0
			for _, mt := range ds.Machines {
				ins := analysis.BuildInstances(mt)
				for _, in := range ins {
					if in.IsDataSession() {
						n++
					}
				}
			}
			_ = n
		}
	})
}

// BenchmarkEventQueue measures the DES kernel (DESIGN.md ablation 1).
func BenchmarkEventQueue(b *testing.B) {
	sched := sim.NewScheduler()
	rng := sim.NewRNG(9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched.At(sched.Now().Add(sim.Duration(rng.Int63n(1000000))), func(*sim.Scheduler) {})
		if i%1024 == 1023 {
			sched.RunUntil(sched.Now().Add(500000))
		}
	}
}

// BenchmarkSection7SelfSimilarity regenerates the Hurst diagnostics of
// the §7 extension.
func BenchmarkSection7SelfSimilarity(b *testing.B) {
	_, r := corpus(b)
	mt := r.OpenGapSampleMachine()
	gaps := analysis.AllOpenGaps(mt)
	counts := stats.BinCounts(gaps, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := stats.HurstVariance(counts)
		if i == 0 {
			b.ReportMetric(h, "hurst(paper:>0.5)")
		}
	}
}

// BenchmarkProcessCube regenerates the per-process view (§12 future
// work) through the §4 cube.
func BenchmarkProcessCube(b *testing.B) {
	_, r := corpus(b)
	names := map[string]map[uint32]string{}
	for _, mt := range r.DS.Machines {
		names[mt.Name] = mt.ProcNames
	}
	dim := analysis.DimProcess(names)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := analysis.BuildCube(r.All, dim)
		if i == 0 {
			b.ReportMetric(float64(len(c.Cells)), "processes")
		}
	}
}

// BenchmarkCachePolicySweep replays the corpus read stream against the
// policy/size matrix — the simulation-study use of the collection.
func BenchmarkCachePolicySweep(b *testing.B) {
	ds, _ := corpus(b)
	var accesses []cachesim.Access
	for _, mt := range ds.Machines {
		accesses = append(accesses, cachesim.ExtractReads(mt)...)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := cachesim.Sweep(accesses, []float64{4, 16})
		if i == 0 {
			for _, rr := range res {
				if rr.Policy == "LRU" && rr.CacheMB == 16 {
					b.ReportMetric(100*rr.HitRatio, "lru16MB_hit_pct")
				}
			}
		}
	}
}

// BenchmarkReplay measures the trace replay engine: the whole corpus is
// re-driven through freshly built machines, reported as trace records
// replayed per wall-clock second.
func BenchmarkReplay(b *testing.B) {
	ds, _ := corpus(b)
	var records int
	for _, mt := range ds.Machines {
		records += mt.Len()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := replay.Replay(ds, replay.Config{Mode: replay.ModeFast, Seed: 13})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var diverged int
			for _, mr := range res.Machines {
				diverged += mr.Diverged
			}
			b.ReportMetric(float64(diverged)/float64(records), "diverged_frac")
		}
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(records)*float64(b.N)/sec, "records/s")
	}
}

// BenchmarkSynthFit fits the benchmark-configuration profile from the
// corpus (the §1 "configuration information for realistic file system
// benchmarks" output).
func BenchmarkSynthFit(b *testing.B) {
	ds, _ := corpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := synth.Fit(ds)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(p.OpenGapMS.Alpha, "fitted_gap_alpha")
			b.ReportMetric(100*p.ControlFraction, "fitted_control_pct")
		}
	}
}

// BenchmarkAblationCacheSize re-runs the study at divergent cache sizes:
// the §7 systems-engineering warning is that mean-based sizing fails
// under heavy-tailed demand — the hit-rate spread across sizes is the
// observable.
func BenchmarkAblationCacheSize(b *testing.B) {
	for _, mb := range []int64{2, 16} {
		mb := mb
		b.Run(fmt.Sprintf("%dMB", mb), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := core.NewStudy(core.Config{
					Seed: 12, Machines: 2, Duration: sim.Hour,
					CacheBytes: mb << 20,
				})
				if err := s.Run(); err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					r, err := s.Results()
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(100*r.Cache.CacheHitFraction(), "cache_hit_pct")
				}
			}
		})
	}
}

// fleetCorpus is the standard 45-machine corpus (the paper's fleet size)
// used by the analysis-engine benchmarks. Built once; the benchmarks
// decode/compute from the collected store, never re-running the study.
var (
	fleetOnce  sync.Once
	fleetStudy *core.Study
)

func fleetCorpus(b *testing.B) *core.Study {
	b.Helper()
	fleetOnce.Do(func() {
		s := core.NewStudy(core.Config{
			Seed: 21, Machines: 45, Duration: 15 * sim.Minute,
			WithNetwork: true, Workers: 8,
		})
		if err := s.Run(); err != nil {
			panic(err)
		}
		fleetStudy = s
	})
	return fleetStudy
}

// BenchmarkDataSetDecode measures corpus decode — DEFLATE inflation into
// sorted MachineTraces — at increasing worker counts. The determinism
// test (core.TestDataSetWorkersDeterministic) pins that every variant
// yields an identical corpus, so the sub-benchmarks differ only in
// wall-clock.
func BenchmarkDataSetDecode(b *testing.B) {
	s := fleetCorpus(b)
	for _, workers := range []int{1, 4, 8} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var records int
			for i := 0; i < b.N; i++ {
				ds, err := s.DataSetWorkers(workers)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					for _, mt := range ds.Machines {
						records += mt.Len()
					}
					b.ReportMetric(float64(len(ds.Machines)), "machines")
				}
			}
			b.ReportMetric(float64(records), "records")
		})
	}
}

// BenchmarkComputeResults measures the full per-machine measure fan-out
// (instance tables, lifetimes, controls, cache, reuse, FastIO shares)
// plus the serial merge, at increasing worker counts. Each iteration
// rebuilds fresh MachineTraces from the decoded rows, untimed: derived
// state is built once per trace, so reusing traces would measure only
// the merge.
func BenchmarkComputeResults(b *testing.B) {
	s := fleetCorpus(b)
	base, err := s.DataSetWorkers(8)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 4, 8} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				ds := &analysis.DataSet{}
				for _, mt := range base.Machines {
					recs, err := mt.Rows()
					if err != nil {
						b.Fatal(err)
					}
					fresh := analysis.NewMachineTrace(mt.Name, mt.Category, recs)
					fresh.ProcNames = mt.ProcNames
					ds.Machines = append(ds.Machines, fresh)
				}
				b.StartTimer()
				r := report.ComputeWorkers(ds, workers)
				if i == 0 {
					b.ReportMetric(float64(len(r.All)), "instances")
				}
			}
		})
	}
}

// BenchmarkFleet measures the sharded fleet-execution engine: the same
// reduced study at increasing worker counts. Per-machine streams are
// byte-identical across worker counts, so the sub-benchmarks differ only
// in wall-clock — the speedup curve is the artefact.
func BenchmarkFleet(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := core.NewStudy(core.Config{
					Seed: 17, Machines: 8, Duration: sim.Hour,
					WithNetwork: true, Workers: workers,
				})
				if err := s.Run(); err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(s.TotalEvents()), "records")
				}
			}
		})
	}
}

// BenchmarkObsHotPath measures the observability primitives on their hot
// paths: a counter increment and a histogram observation, sequential and
// under contention. The counter path must be allocation-free — it sits on
// every IRP dispatch and cache read of every simulated machine, so any
// per-op allocation would dominate the fleet's heap churn.
func BenchmarkObsHotPath(b *testing.B) {
	r := obs.NewRegistry()
	c := r.Counter("bench_ops_total", "hot-path counter")
	h := r.Histogram("bench_latency_ticks", "hot-path histogram")

	b.Run("counter", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("histogram", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Observe(int64(i))
		}
	})
	b.Run("counter-parallel", func(b *testing.B) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				c.Inc()
			}
		})
	})
	b.Run("histogram-parallel", func(b *testing.B) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			var i int64
			for pb.Next() {
				h.Observe(i)
				i++
			}
		})
	})
}

// BenchmarkSpanHotPath measures the tracer on its hot paths. The no-op
// path (nil tracer) sits on every instrumented call site when tracing is
// off, so it must be allocation-free and nanosecond-scale; the live path
// pays a couple of allocations per span (the span itself and its slot in
// the trace's span list) and is bounded so instrumented stages stay
// microsecond-cheap.
func BenchmarkSpanHotPath(b *testing.B) {
	b.Run("noop", func(b *testing.B) {
		var tr *trace.Tracer
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sp := tr.StartTrace("bench", "noop", trace.ID(1), nil)
			c := sp.Child("stage")
			c.AnnotateInt("n", int64(i))
			c.Finish()
			sp.Finish()
		}
	})
	b.Run("child", func(b *testing.B) {
		tr := trace.New(trace.Config{Recent: 64})
		root := tr.StartTrace("bench", "root", trace.ID(2), nil)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c := root.Child("stage")
			c.Finish()
		}
	})
	b.Run("trace", func(b *testing.B) {
		tr := trace.New(trace.Config{Recent: 64})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sp := tr.StartTrace("bench", "root", trace.MixID(trace.ID(3), uint64(i)), nil)
			c := sp.Child("stage")
			c.Finish()
			sp.Finish()
		}
	})
}
