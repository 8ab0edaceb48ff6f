package report

import (
	"fmt"
	"strings"

	"repro/internal/analysis"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Section8 summarises the §8 operational characteristics.
func (r *Results) Section8() string {
	var b strings.Builder
	b.WriteString("Section 8. Operational characteristics\n")

	// 8.1 open/close.
	allGaps := append(append([]float64{}, r.openDataGaps...), r.openCtlGaps...)
	gc := stats.NewCDF(allGaps)
	fmt.Fprintf(&b, "  open inter-arrivals: %.0f%% within 1 ms, %.0f%% within 30 ms (paper: 40%%, 90%%)\n",
		gc.At(1)*100, gc.At(30)*100)
	var occ []float64
	for _, mt := range r.DS.Machines {
		occ = append(occ, analysis.OpenIntervalOccupancy(mt))
	}
	fmt.Fprintf(&b, "  1-second intervals containing opens: %.0f%% (paper: up to 24%%)\n",
		100*mean(occ))

	if r.Reuse.ReadOnlyPaths > 0 {
		fmt.Fprintf(&b, "  read-only files opened multiple times: %.0f%% (paper: 24–40%%)\n",
			100*float64(r.Reuse.ReadOnlyReopened)/float64(r.Reuse.ReadOnlyPaths))
	}
	if r.Reuse.WriteOnlyPaths > 0 {
		fmt.Fprintf(&b, "  write-only files re-opened write-only: %.0f%% (paper: 4%%)\n",
			100*float64(r.Reuse.WriteOnlyReWritten)/float64(r.Reuse.WriteOnlyPaths))
		fmt.Fprintf(&b, "  write-only files later read: %.0f%% (paper: 36–52%%)\n",
			100*float64(r.Reuse.WriteOnlyThenRead)/float64(r.Reuse.WriteOnlyPaths))
	}
	if r.Reuse.ReadWritePaths > 0 {
		fmt.Fprintf(&b, "  read/write files opened multiple times: %.0f%% (paper: 94%%)\n",
			100*float64(r.Reuse.ReadWriteReopened)/float64(r.Reuse.ReadWritePaths))
	}

	hc := r.allHold
	fmt.Fprintf(&b, "  sessions closed within 1 ms: %.0f%% (paper: 40%%); within 1 s: %.0f%% (paper: 90%%)\n",
		hc.At(1)*100, hc.At(1000)*100)

	readGaps, writeGaps := analysis.CleanupCloseGaps(r.All)
	rc, wc := stats.NewCDF(readGaps), stats.NewCDF(writeGaps)
	if rc.N() > 0 {
		fmt.Fprintf(&b, "  cleanup→close, read sessions: p50=%.0f µs (paper: 4–80 µs)\n", rc.Quantile(0.5))
	}
	if wc.N() > 0 {
		fmt.Fprintf(&b, "  cleanup→close, write sessions: p90=%.2g s (paper: 1–4 s)\n",
			wc.Quantile(0.9)/1e6)
	}

	// 8.3/8.4 controls and errors.
	fmt.Fprintf(&b, "  opens for control/directory operations: %.0f%% (paper: 74%%)\n",
		100*r.Controls.ControlFraction())
	fmt.Fprintf(&b, "  open failures: %.1f%% (paper: 12%%)\n", 100*r.Controls.FailureFraction())
	if r.Controls.FailedOpens > 0 {
		fmt.Fprintf(&b, "    not-found: %.0f%% of failures (paper: 52%%); collisions: %.0f%% (paper: 31%%)\n",
			100*float64(r.Controls.NotFoundErrors)/float64(r.Controls.FailedOpens),
			100*float64(r.Controls.CollisionErrors)/float64(r.Controls.FailedOpens))
	}
	fmt.Fprintf(&b, "  read errors: %.2f%% (paper: 0.2%%)\n", 100*r.Controls.ReadErrorFraction())
	fmt.Fprintf(&b, "  volume-mounted FSCTLs observed: %d; SetEndOfFile ops: %d\n",
		r.Controls.VolumeMountedOps, r.Controls.SetEndOfFileOps)
	return b.String()
}

// Section9 summarises the cache-manager behaviour.
func (r *Results) Section9() string {
	var b strings.Builder
	b.WriteString("Section 9. Cache manager\n")
	fmt.Fprintf(&b, "  reads served from the file cache: %.0f%% (paper: 60%%)\n",
		100*r.Cache.CacheHitFraction())
	fmt.Fprintf(&b, "  open-for-read sessions needing <=1 prefetch: %.0f%% (paper: 92%%)\n",
		100*r.Cache.SinglePrefetchFraction())
	fmt.Fprintf(&b, "  read-ahead operations: %d; lazy-write operations: %d\n",
		r.Cache.ReadAheadOps, r.Cache.LazyWriteOps)
	if r.Cache.DataSessions > 0 {
		fmt.Fprintf(&b, "  data sessions with caching disabled: %.1f%% (paper: 0.2%% of files)\n",
			100*float64(r.Cache.CacheDisabledSessions)/float64(r.Cache.DataSessions))
	}
	if r.Cache.WriteSessions > 0 {
		fmt.Fprintf(&b, "  write sessions flushing per write: %.0f%% of flush users (paper: 87%%)\n",
			100*float64(r.Cache.FlushPerWrite)/maxfi(r.flushUsers(), 1))
	}
	return b.String()
}

// flushUsers counts write sessions that flushed at least once.
func (r *Results) flushUsers() int {
	n := 0
	for _, in := range r.All {
		if in.Writes > 0 && in.FlushOps > 0 {
			n++
		}
	}
	return n
}

// Section10 summarises the FastIO path.
func (r *Results) Section10() string {
	var b strings.Builder
	b.WriteString("Section 10. FastIO\n")
	fmt.Fprintf(&b, "  FastIO share of read requests: %.0f%% (paper: 59%%)\n", 100*mean(r.ReadShares))
	fmt.Fprintf(&b, "  FastIO share of write requests: %.0f%% (paper: 96%%)\n", 100*mean(r.WriteShares))
	s := &r.requests
	fr := stats.Summarize(s.FastReadLatUS)
	ir := stats.Summarize(s.IrpReadLatUS)
	fmt.Fprintf(&b, "  median latency: FastIO read %.1f µs vs IRP read %.1f µs\n", fr.P50, ir.P50)
	fsz := stats.Summarize(s.FastReadSize)
	isz := stats.Summarize(s.IrpReadSize)
	fmt.Fprintf(&b, "  median request size: FastIO read %.0f B vs IRP read %.0f B (paper: FastIO smaller)\n",
		fsz.P50, isz.P50)
	return b.String()
}

// Section6Lifetimes summarises §6.3.
func (r *Results) Section6Lifetimes() string {
	var b strings.Builder
	b.WriteString("Section 6.3. File lifetimes\n")
	fmt.Fprintf(&b, "  new files dead within 4 s of creation: %.0f%% of births (paper: up to 80%%)\n",
		100*r.Lifetimes.DeadWithin(4*sim.Second))
	fmt.Fprintf(&b, "  deletion methods: overwrite %.0f%% / explicit %.0f%% / temporary %.0f%% (paper: 37/62/1)\n",
		100*r.Lifetimes.MethodShare(analysis.DeleteByOverwrite),
		100*r.Lifetimes.MethodShare(analysis.DeleteExplicit),
		100*r.Lifetimes.MethodShare(analysis.DeleteByTempAttr))
	// Close→overwrite latency.
	var closeGaps []float64
	same, total := 0, 0
	for _, s := range r.Lifetimes.Samples {
		if s.Method == analysis.DeleteByOverwrite {
			total++
			if s.SameProcess {
				same++
			}
			if s.CloseToDeath >= 0 {
				closeGaps = append(closeGaps, s.CloseToDeath.Milliseconds())
			}
		}
	}
	if len(closeGaps) > 0 {
		c := stats.NewCDF(closeGaps)
		fmt.Fprintf(&b, "  overwrites within 0.7 ms of close: %.0f%% (paper: >75%%)\n", c.At(0.7)*100)
	}
	if total > 0 {
		fmt.Fprintf(&b, "  overwriting process is the creator: %.0f%% (paper: 94%%)\n",
			100*float64(same)/float64(total))
	}
	// Explicit-delete latency from creation.
	ex := r.Lifetimes.ByMethod(analysis.DeleteExplicit)
	if len(ex) > 0 {
		c := stats.NewCDF(ex)
		fmt.Fprintf(&b, "  explicit deletes within 4 s of creation: %.0f%% (paper: 72%%)\n", c.At(4)*100)
	}
	return b.String()
}

// Table1 compiles the summary-of-observations sheet from the computed
// measures.
func (r *Results) Table1() string {
	var b strings.Builder
	b.WriteString("Table 1. Summary of observations (measured on the simulated fleet)\n\n")
	row10m := r.activity[0]
	fmt.Fprintf(&b, "- per-user throughput (10-min intervals): %.1f KB/s (paper: 24 KB/s vs Sprite 8)\n",
		row10m.AvgThroughputKBs)
	dataHold := r.dataHold
	fmt.Fprintf(&b, "- data-access sessions open < 10 ms: %.0f%% (paper: 75%%)\n", dataHold.At(10)*100)
	var all []float64
	for _, ss := range r.sizesByClass {
		for _, s := range ss {
			all = append(all, s.Size)
		}
	}
	sc := stats.NewCDF(all)
	fmt.Fprintf(&b, "- accessed files smaller than 26 KB: %.0f%% (paper: 80%%)\n", sc.At(26*1024)*100)
	fmt.Fprintf(&b, "- new files dead within seconds: %.0f%% (paper: 81%%)\n",
		100*r.Lifetimes.DeadWithin(5*sim.Second))
	fmt.Fprintf(&b, "- opens for control/directory ops: %.0f%% (paper: 74%%)\n",
		100*r.Controls.ControlFraction())
	fmt.Fprintf(&b, "- reads served from cache: %.0f%% (paper: 60%%)\n", 100*r.Cache.CacheHitFraction())
	fmt.Fprintf(&b, "- single prefetch sufficient: %.0f%% (paper: 92%%)\n",
		100*r.Cache.SinglePrefetchFraction())
	fmt.Fprintf(&b, "- FastIO: %.0f%% of reads, %.0f%% of writes (paper: 59%%, 96%%)\n",
		100*mean(r.ReadShares), 100*mean(r.WriteShares))
	gaps := r.sampleGaps
	ms := make([]float64, len(gaps))
	for i, g := range gaps {
		ms[i] = g * 1000
	}
	fmt.Fprintf(&b, "- heavy-tail evidence: Hill α = %.2f (paper: 1.2–1.7)\n",
		stats.Hill(ms, len(ms)/50+2))
	return b.String()
}

func maxfi(a, b int) float64 {
	if a > b {
		return float64(a)
	}
	return float64(b)
}
