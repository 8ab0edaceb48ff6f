package report

import (
	"fmt"
	"runtime"
	"strings"

	"repro/internal/analysis"
	"repro/internal/cachesim"
	"repro/internal/par"
	"repro/internal/snapshot"
	"repro/internal/stats"
)

// Section5 renders the file-system content analysis from snapshots: the
// census, the type decomposition, and — given at least two snapshots of
// one volume — the day-over-day change attribution.
//
// The census of each machine's first snapshot, the type decomposition of
// the largest snapshot and the change attribution are independent, so
// they run as slots of one par.For at GOMAXPROCS workers (the two single
// analyses first, as they are the largest); the lines are then written
// in order.
func (r *Results) Section5(snaps []*snapshot.Snapshot) string {
	var b strings.Builder
	b.WriteString("Section 5. File system content\n")
	if len(snaps) == 0 {
		b.WriteString("  (no snapshots collected)\n")
		return b.String()
	}
	// The first snapshot per machine, and the largest snapshot.
	var firsts []*snapshot.Snapshot
	seen := map[string]bool{}
	var biggest *snapshot.Snapshot
	for _, s := range snaps {
		if !seen[s.Machine] {
			seen[s.Machine] = true
			firsts = append(firsts, s)
		}
		if biggest == nil || len(s.Records) > len(biggest.Records) {
			biggest = s
		}
	}
	// The change-attribution exemplar: the first machine+volume, in
	// snapshot order, that has at least two snapshots.
	byVol := map[string][]*snapshot.Snapshot{}
	var order []string
	for _, s := range snaps {
		k := s.Machine + "|" + s.Volume
		if byVol[k] == nil {
			order = append(order, k)
		}
		byVol[k] = append(byVol[k], s)
	}
	exemplar := ""
	for _, k := range order {
		if len(byVol[k]) >= 2 {
			exemplar = k
			break
		}
	}

	census := make([]analysis.ContentCensus, len(firsts))
	var types []analysis.TypeSlice
	var files int
	var imageShare float64
	var ca analysis.ChangeAttribution
	par.For(runtime.GOMAXPROCS(0), 2+len(firsts), func(i int) {
		switch i {
		case 0:
			types = analysis.TypeCensus(biggest)
			for _, t := range types {
				files += t.Files
			}
			imageShare = analysis.ImageShareOfTail(biggest, files/100+1)
		case 1:
			if exemplar != "" {
				vs := byVol[exemplar]
				ca = analysis.AttributeChanges(vs[0], vs[len(vs)-1])
			}
		default:
			census[i-2] = analysis.Census(firsts[i-2])
		}
	})

	for _, c := range census {
		fmt.Fprintf(&b, "  %-16s %6d files %5d dirs %6d MB  size p50=%.0fB p90=%.0fB α=%.2f  time-inconsistent %.1f%%\n",
			c.Machine, c.Files, c.Dirs, c.Bytes>>20, c.SizeP50, c.SizeP90,
			c.SizeTailAlpha, 100*c.TimeInconsistent)
	}
	b.WriteString("  file-type decomposition by bytes (largest volume):\n")
	for _, t := range types[:min(8, len(types))] {
		fmt.Fprintf(&b, "    %-24s %7d files %8d KB\n",
			t.Category.Major+"/"+t.Category.Minor, t.Files, t.Bytes>>10)
	}
	fmt.Fprintf(&b, "  exe/dll/font share of the top-1%% sizes: %.0f%% (paper: dominant)\n", 100*imageShare)
	if exemplar != "" {
		fmt.Fprintf(&b, "  %s: +%d ~%d -%d files; profile share %.0f%% (paper: 94%%), WWW cache %.0f%% (paper: ≤93%%)\n",
			exemplar, ca.Added, ca.Changed, ca.Removed, 100*ca.ProfileShare, 100*ca.WebCacheShare)
	}
	return b.String()
}

// Section7SelfSim renders the self-similarity diagnostics (§7 conclusion
// 4): Hurst estimates of the open-arrival count series against a Poisson
// control.
func (r *Results) Section7SelfSim() string {
	mt := r.OpenGapSampleMachine()
	gaps := analysis.AllOpenGaps(mt)
	var b strings.Builder
	b.WriteString("Section 7 (extension). Self-similarity of open arrivals\n")
	if len(gaps) < 1000 {
		b.WriteString("  (sample too small)\n")
		return b.String()
	}
	counts := stats.BinCounts(gaps, 1)
	hv := stats.HurstVariance(counts)
	hrs := stats.HurstRS(counts)
	synth := stats.PoissonSynth(gaps, len(gaps), 77)
	pc := stats.BinCounts(synth, 1)
	phv := stats.HurstVariance(pc)
	fmt.Fprintf(&b, "  Hurst (aggregated variance): %.2f   (Poisson control: %.2f ≈ 0.5)\n", hv, phv)
	fmt.Fprintf(&b, "  Hurst (rescaled range):      %.2f\n", hrs)
	b.WriteString("  H > 0.5 indicates long-range dependence — the §7 conclusion that\n")
	b.WriteString("  exploitation of self-similar properties can improve system design.\n")
	// Variance-time plot.
	b.WriteString("  variance-time plot: log10(m)  log10(var)\n")
	for _, p := range stats.VarianceTimePlot(counts, 8) {
		fmt.Fprintf(&b, "    %8.2f  %10.3f\n", p.LogM, p.LogVar)
	}
	return b.String()
}

// ProcessView renders the per-process access characteristics (the
// paper's §12 future-work list) from the process-dimension cube.
func (r *Results) ProcessView() string {
	names := map[string]map[uint32]string{}
	for _, mt := range r.DS.Machines {
		names[mt.Name] = mt.ProcNames
	}
	cube := analysis.BuildCube(r.All, analysis.DimProcess(names))
	var b strings.Builder
	b.WriteString("Per-process access characteristics (paper §12 future work)\n")
	fmt.Fprintf(&b, "  %-14s %9s %8s %10s %10s %8s\n",
		"process", "sessions", "data", "KB read", "KB written", "p50 hold")
	for _, c := range cube.Top(12) {
		hold := stats.Summarize(c.HoldSamples)
		fmt.Fprintf(&b, "  %-14s %9d %8d %10d %10d %6.1fms\n",
			c.Key, c.Sessions, c.DataSessions, c.BytesRead>>10, c.BytesWritten>>10, hold.P50)
	}
	return b.String()
}

// TypeView renders the per-file-type drill-down: major categories with a
// drill into the busiest one.
func (r *Results) TypeView() string {
	cube := analysis.BuildCube(r.All, analysis.DimTypeMajor)
	var b strings.Builder
	b.WriteString("Per-file-type access characteristics (paper §12 future work)\n")
	fmt.Fprintf(&b, "  %-14s %9s %10s %10s\n", "type", "sessions", "KB read", "KB written")
	for _, c := range cube.Top(10) {
		fmt.Fprintf(&b, "  %-14s %9d %10d %10d\n",
			c.Key, c.Sessions, c.BytesRead>>10, c.BytesWritten>>10)
	}
	if top := cube.Top(1); len(top) == 1 {
		fmt.Fprintf(&b, "  drill-down into %q:\n", top[0].Key)
		sub := analysis.DrillDown(r.All, analysis.DimTypeMajor, top[0].Key, analysis.DimTypeMinor)
		for _, c := range sub.Top(6) {
			fmt.Fprintf(&b, "    %-20s %9d sessions %10d KB\n", c.Key, c.Sessions, c.Bytes()>>10)
		}
	}
	return b.String()
}

// CacheSweep renders a trace-driven replacement-policy sweep over the
// corpus's read stream — the simulation-study use of the collection.
func (r *Results) CacheSweep(sizesMB []float64) string {
	var accesses []cachesim.Access
	for _, mt := range r.DS.Machines {
		accesses = append(accesses, cachesim.ExtractReads(mt)...)
	}
	if len(accesses) == 0 {
		return "Cache policy sweep: no read accesses in corpus\n"
	}
	return cachesim.Render(cachesim.Sweep(accesses, sizesMB))
}

// FollowUps renders the §2 follow-up traces: paging-I/O burst behaviour,
// compressed-file reads and directory-operation throughput.
func (r *Results) FollowUps() string {
	var b strings.Builder
	b.WriteString("Follow-up traces (§2): paging bursts, compressed reads, directory throughput\n")
	mt := r.OpenGapSampleMachine()
	pb := analysis.PagingBursts(mt)
	fmt.Fprintf(&b, "  paging I/O: %d requests; dispersion %.1f @1s, %.1f @10s; peak %v/s; lazy %.0f%%, read-ahead %.0f%%\n",
		pb.Requests, pb.Dispersion1s, pb.Dispersion10s, pb.MaxPerSecond,
		100*pb.LazyShare, 100*pb.ReadAheadShare)
	var comp, plain []float64
	for _, m := range r.DS.Machines {
		c, p := analysis.CompressedReads(m)
		comp = append(comp, c...)
		plain = append(plain, p...)
	}
	cs, ps := stats.Summarize(comp), stats.Summarize(plain)
	if cs.N > 0 && ps.N > 0 {
		fmt.Fprintf(&b, "  non-cached reads: compressed p50=%.0f µs (n=%d) vs plain p50=%.0f µs (n=%d)\n",
			cs.P50, cs.N, ps.P50, ps.N)
	}
	var queries int
	var peak float64
	for _, m := range r.DS.Machines {
		ds := analysis.DirectoryThroughput(m)
		queries += ds.Queries
		if ds.PeakPerSecond > peak {
			peak = ds.PeakPerSecond
		}
	}
	fmt.Fprintf(&b, "  directory queries: %d total; peak %v/s on one machine\n", queries, peak)
	return b.String()
}
