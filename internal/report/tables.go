package report

import (
	"fmt"
	"strings"

	"repro/internal/analysis"
	"repro/internal/stats"
)

// Table2 renders the user-activity table at the paper's two interval
// widths. Threshold is the background-activity cutoff in bytes per
// interval.
func (r *Results) Table2() string {
	var b strings.Builder
	b.WriteString("Table 2. User activity (throughput in KB/s; stdev in parentheses)\n")
	for w, iv := range activityWidths {
		row := r.activity[w]
		fmt.Fprintf(&b, "\n%v intervals:\n", iv)
		fmt.Fprintf(&b, "  Max number of active users            %d\n", row.MaxActiveUsers)
		fmt.Fprintf(&b, "  Average number of active users        %.1f (%.1f)\n",
			row.AvgActiveUsers, row.AvgActiveStdev)
		fmt.Fprintf(&b, "  Average throughput for a user         %.1f (%.1f)\n",
			row.AvgThroughputKBs, row.ThroughputStdevKBs)
		fmt.Fprintf(&b, "  Peak throughput for an active user    %.0f\n", row.PeakUserKBs)
		fmt.Fprintf(&b, "  Peak throughput system wide           %.0f\n", row.PeakSystemKBs)
	}
	return b.String()
}

// Table3 renders the access-pattern matrix with per-machine min/max
// ranges, like the paper's W/−/+ columns.
func (r *Results) Table3() string {
	classes := []analysis.AccessClass{
		analysis.AccessReadOnly, analysis.AccessWriteOnly, analysis.AccessReadWrite,
	}
	patterns := []analysis.Pattern{
		analysis.PatternWholeFile, analysis.PatternOtherSequential, analysis.PatternRandom,
	}
	// Per-machine tables for the ranges; the aggregate for the mean.
	perMachine := map[string]analysis.PatternTable{}
	for _, name := range r.machineNames() {
		perMachine[name] = analysis.AccessPatterns(r.PerMachine[name])
	}
	agg := analysis.AccessPatterns(r.All)

	rangeOf := func(get func(t analysis.PatternTable) float64) (lo, hi float64) {
		first := true
		for _, t := range perMachine {
			v := get(t)
			if first || v < lo {
				lo = v
			}
			if first || v > hi {
				hi = v
			}
			first = false
		}
		return lo, hi
	}

	var b strings.Builder
	b.WriteString("Table 3. Access patterns (percentages; W=mean, -/+ = per-machine range)\n")
	b.WriteString("File usage            Accesses W ( -  / + )   Bytes W ( -  / + )\n")
	for _, c := range classes {
		aLo, aHi := rangeOf(func(t analysis.PatternTable) float64 { return t.ClassAccesses[c] })
		bLo, bHi := rangeOf(func(t analysis.PatternTable) float64 { return t.ClassBytes[c] })
		fmt.Fprintf(&b, "%-20s  %6.0f (%3.0f /%3.0f)   %6.0f (%3.0f /%3.0f)\n",
			c, agg.ClassAccesses[c], aLo, aHi, agg.ClassBytes[c], bLo, bHi)
		for _, p := range patterns {
			cell := agg.Cells[c][p]
			cLo, cHi := rangeOf(func(t analysis.PatternTable) float64 {
				return t.Cells[c][p].Accesses
			})
			dLo, dHi := rangeOf(func(t analysis.PatternTable) float64 {
				return t.Cells[c][p].Bytes
			})
			fmt.Fprintf(&b, "  %-18s  %6.0f (%3.0f /%3.0f)   %6.0f (%3.0f /%3.0f)\n",
				p, cell.Accesses, cLo, cHi, cell.Bytes, dLo, dHi)
		}
	}
	return b.String()
}

// Figure1 renders the run-length CDF weighted by run count.
func (r *Results) Figure1() string {
	readRuns, writeRuns := r.readRuns, r.writeRuns
	var b strings.Builder
	b.WriteString("Figure 1. Sequential run length CDF, weighted by number of runs\n")
	reads := stats.NewCDF(readRuns)
	b.WriteString(cdfTable("read runs", "bytes", reads, 16))
	b.WriteString(cdfTable("write runs", "bytes", stats.NewCDF(writeRuns), 16))
	b.WriteString(quantileLine("read-run 80% mark", reads, "B"))
	return b.String()
}

// Figure2 renders the run-length CDF weighted by bytes transferred.
func (r *Results) Figure2() string {
	readRuns, writeRuns := r.readRuns, r.writeRuns
	var b strings.Builder
	b.WriteString("Figure 2. Sequential run length CDF, weighted by bytes transferred\n")
	b.WriteString(cdfTable("read runs", "bytes", stats.NewWeightedCDF(readRuns, readRuns), 16))
	b.WriteString(cdfTable("write runs", "bytes", stats.NewWeightedCDF(writeRuns, writeRuns), 16))
	return b.String()
}

// figure34 shares the Figure 3/4 rendering.
func (r *Results) figure34(byBytes bool, title string) string {
	byClass := r.sizesByClass
	var b strings.Builder
	b.WriteString(title)
	for _, c := range []analysis.AccessClass{
		analysis.AccessReadOnly, analysis.AccessReadWrite, analysis.AccessWriteOnly,
	} {
		samples := byClass[c]
		sizes := make([]float64, len(samples))
		weights := make([]float64, len(samples))
		for i, s := range samples {
			sizes[i] = s.Size
			if byBytes {
				weights[i] = s.Bytes
			} else {
				weights[i] = 1
			}
		}
		b.WriteString(cdfTable(c.String(), "file size (B)", stats.NewWeightedCDF(sizes, weights), 14))
	}
	return b.String()
}

// Figure3 renders the file-size CDF weighted by opens.
func (r *Results) Figure3() string {
	return r.figure34(false, "Figure 3. File size CDF weighted by number of files opened\n")
}

// Figure4 renders the file-size CDF weighted by bytes transferred.
func (r *Results) Figure4() string {
	return r.figure34(true, "Figure 4. File size CDF weighted by bytes transferred\n")
}

// Figure5 renders file-open-time CDFs for all/local/network data sessions.
func (r *Results) Figure5() string {
	var b strings.Builder
	b.WriteString("Figure 5. File open time CDF (data sessions, ms)\n")
	data := r.dataHold
	b.WriteString(cdfTable("all files", "ms", data, 16))
	b.WriteString(cdfTable("local file system", "ms",
		r.HoldCDF(analysis.And(analysis.DataSessions, analysis.LocalSessions)), 16))
	b.WriteString(cdfTable("network file server", "ms",
		r.HoldCDF(analysis.And(analysis.DataSessions, analysis.RemoteSessions)), 16))
	b.WriteString(quantileLine("all data sessions", data, "ms"))
	return b.String()
}

// Figure6 renders new-file lifetime CDFs by deletion method.
func (r *Results) Figure6() string {
	var b strings.Builder
	b.WriteString("Figure 6. Lifetime of newly created files by deletion method (s)\n")
	ow := r.Lifetimes.ByMethod(analysis.DeleteByOverwrite)
	ex := r.Lifetimes.ByMethod(analysis.DeleteExplicit)
	b.WriteString(cdfTable("overwrite/truncate", "seconds", stats.NewCDF(ow), 16))
	b.WriteString(cdfTable("explicit delete", "seconds", stats.NewCDF(ex), 16))
	fmt.Fprintf(&b, "  method shares: overwrite %.0f%%, explicit %.0f%%, temporary %.0f%%\n",
		100*r.Lifetimes.MethodShare(analysis.DeleteByOverwrite),
		100*r.Lifetimes.MethodShare(analysis.DeleteExplicit),
		100*r.Lifetimes.MethodShare(analysis.DeleteByTempAttr))
	return b.String()
}

// Figure7 renders the lifetime-vs-size sample and its (absent)
// correlation.
func (r *Results) Figure7() string {
	var lt, sz []float64
	for _, s := range r.Lifetimes.Samples {
		if s.Method == analysis.DeleteByOverwrite && s.SizeAtDeath > 0 {
			lt = append(lt, s.Lifetime.Seconds())
			sz = append(sz, float64(s.SizeAtDeath))
		}
	}
	var b strings.Builder
	b.WriteString("Figure 7. Lifetime vs size at overwrite time\n")
	fmt.Fprintf(&b, "  samples: %d\n", len(lt))
	fmt.Fprintf(&b, "  Pearson correlation(lifetime, size) = %.3f (paper: no statistical justification for a correlation)\n",
		stats.Correlation(lt, sz))
	ss := stats.Summarize(sz)
	fmt.Fprintf(&b, "  size: p50=%.0fB p90=%.0fB max=%.0fB\n", ss.P50, ss.P90, ss.Max)
	ls := stats.Summarize(lt)
	fmt.Fprintf(&b, "  lifetime: p50=%.4gs p90=%.4gs max=%.4gs\n", ls.P50, ls.P90, ls.Max)
	return b.String()
}

// Figure8 renders arrival counts at three time scales against a Poisson
// synthesis with matched rate.
func (r *Results) Figure8() string {
	mt, gaps := r.sample, r.sampleGaps
	synth := stats.PoissonSynth(gaps, len(gaps), 99)
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8. Open-arrival counts at three scales (machine %s, %d arrivals)\n",
		mt.Name, len(gaps)+1)
	b.WriteString("  width     trace dispersion   poisson dispersion\n")
	for _, w := range []float64{1, 10, 100} {
		dt := stats.IndexOfDispersion(stats.BinCounts(gaps, w))
		dp := stats.IndexOfDispersion(stats.BinCounts(synth, w))
		fmt.Fprintf(&b, "  %5.0fs  %17.1f  %18.1f\n", w, dt, dp)
	}
	b.WriteString("  (a Poisson process smooths toward dispersion 1 at coarse scales;\n" +
		"   the trace remains over-dispersed at every scale)\n")
	return b.String()
}

// Figure9 renders QQ deviations against Normal and Pareto references.
func (r *Results) Figure9() string {
	mt, gaps := r.sample, r.sampleGaps
	devN := stats.QQDeviation(stats.QQNormal(gaps, 200))
	devP := stats.QQDeviation(stats.QQPareto(gaps, 200))
	var b strings.Builder
	b.WriteString("Figure 9. QQ fit of open inter-arrivals (machine " + mt.Name + ")\n")
	fmt.Fprintf(&b, "  normalized RMS deviation vs Normal: %.3f\n", devN)
	fmt.Fprintf(&b, "  normalized RMS deviation vs Pareto: %.3f\n", devP)
	fmt.Fprintf(&b, "  Pareto fit better by %.1fx (paper: 'an almost perfect match')\n",
		devN/maxf(devP, 1e-9))
	return b.String()
}

// Figure10 renders the LLCD tail and the fitted α.
func (r *Results) Figure10() string {
	mt, gaps := r.sample, r.sampleGaps
	// Milliseconds, as in the paper's plot.
	ms := make([]float64, len(gaps))
	for i, g := range gaps {
		ms[i] = g * 1000
	}
	alpha := stats.TailSlope(ms, 0.9)
	hill := stats.Hill(ms, len(ms)/50+2)
	var b strings.Builder
	b.WriteString("Figure 10. LLCD of open inter-arrival tail (machine " + mt.Name + ")\n")
	pts := stats.LLCD(ms, 24)
	b.WriteString("  log10(ms)   log10(P[X>x])\n")
	for _, p := range pts {
		fmt.Fprintf(&b, "  %9.3f   %12.3f\n", p.LogX, p.LogP)
	}
	fmt.Fprintf(&b, "  fitted tail α = %.2f (paper: 1.2); Hill estimator = %.2f (paper range 1.2–1.7)\n",
		alpha, hill)
	return b.String()
}

// Figure11 renders open inter-arrival CDFs by open purpose.
func (r *Results) Figure11() string {
	var b strings.Builder
	b.WriteString("Figure 11. Inter-arrival of open requests (ms)\n")
	b.WriteString(cdfTable("open for I/O", "ms", stats.NewCDF(r.openDataGaps), 16))
	b.WriteString(cdfTable("open for control", "ms", stats.NewCDF(r.openCtlGaps), 16))
	return b.String()
}

// Figure12 renders session-lifetime CDFs by usage type.
func (r *Results) Figure12() string {
	var b strings.Builder
	b.WriteString("Figure 12. File session lifetime CDF (ms)\n")
	all := r.allHold
	b.WriteString(cdfTable("all usage types", "ms", all, 16))
	b.WriteString(cdfTable("control operations", "ms", r.HoldCDF(analysis.ControlSessions), 16))
	b.WriteString(cdfTable("data operations", "ms", r.dataHold, 16))
	fmt.Fprintf(&b, "  closed within 1 ms: %.0f%%; within 1 s: %.0f%%\n",
		all.At(1)*100, all.At(1000)*100)
	return b.String()
}

// Figure13 renders request-latency CDFs for the four request types.
func (r *Results) Figure13() string {
	s := &r.requests
	var b strings.Builder
	b.WriteString("Figure 13. Request completion latency CDF (µs)\n")
	fastReads, irpReads := stats.NewCDF(s.FastReadLatUS), stats.NewCDF(s.IrpReadLatUS)
	b.WriteString(quantileLine("FastIO Read", fastReads, "us"))
	b.WriteString(quantileLine("FastIO Write", stats.NewCDF(s.FastWriteLatUS), "us"))
	b.WriteString(quantileLine("IRP Read", irpReads, "us"))
	b.WriteString(quantileLine("IRP Write", stats.NewCDF(s.IrpWriteLatUS), "us"))
	b.WriteString(cdfTable("FastIO Read", "us", fastReads, 14))
	b.WriteString(cdfTable("IRP Read", "us", irpReads, 14))
	return b.String()
}

// Figure14 renders request-size CDFs for the four request types.
func (r *Results) Figure14() string {
	s := &r.requests
	var b strings.Builder
	b.WriteString("Figure 14. Requested data size CDF (bytes)\n")
	b.WriteString(quantileLine("FastIO Read", stats.NewCDF(s.FastReadSize), "B"))
	b.WriteString(quantileLine("FastIO Write", stats.NewCDF(s.FastWriteSize), "B"))
	b.WriteString(quantileLine("IRP Read", stats.NewCDF(s.IrpReadSize), "B"))
	b.WriteString(quantileLine("IRP Write", stats.NewCDF(s.IrpWriteSize), "B"))
	return b.String()
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
