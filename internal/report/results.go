// Package report computes and renders the paper's evaluation artefacts:
// Table 1 (summary of observations), Table 2 (user activity), Table 3
// (access patterns) and Figures 1–14, each as a text table suitable for
// side-by-side comparison with the published curves. EXPERIMENTS.md is
// generated from these renderers.
package report

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Results holds every derived measure for a study.
type Results struct {
	DS *analysis.DataSet

	// PerMachine instance tables, keyed by machine name.
	PerMachine map[string][]*analysis.Instance
	// All is the concatenated instance table.
	All []*analysis.Instance

	// Lifetimes merged across machines.
	Lifetimes analysis.LifetimeStats
	// Controls and Cache merged across machines.
	Controls analysis.ControlStats
	Cache    analysis.CacheMeasures
	Reuse    analysis.ReuseStats

	// FastIO shares per machine.
	ReadShares, WriteShares []float64
}

// machineMeasures is everything ComputeWorkersTrace derives from a single
// machine — the unit of the worker fan-out.
type machineMeasures struct {
	ins    []*analysis.Instance
	lt     analysis.LifetimeStats
	c      analysis.ControlStats
	cm     analysis.CacheMeasures
	ru     analysis.ReuseStats
	rs, ws float64
}

// ComputeWorkers builds Results from a data set, fanning machines across
// workers (0 or 1 = sequential). Output is identical at every worker
// count: the merge runs serially in corpus order over slot-indexed
// results.
func ComputeWorkers(ds *analysis.DataSet, workers int) *Results {
	return ComputeWorkersTrace(ds, workers, nil, nil, nil)
}

// KernelTimers are the per-kernel wall-clock histograms of the compute
// fan-out: each receives one observation (microseconds) per machine per
// kernel, splitting report_compute_machine_us by measure. A nil
// *KernelTimers is a complete no-op.
type KernelTimers struct {
	Instances *obs.Histogram
	Lifetimes *obs.Histogram
	Controls  *obs.Histogram
	Cache     *obs.Histogram
	Reuse     *obs.Histogram
	FastIO    *obs.Histogram
}

// NewKernelTimers builds the bundle on r (nil registry yields nil).
func NewKernelTimers(r *obs.Registry) *KernelTimers {
	if r == nil {
		return nil
	}
	return &KernelTimers{
		Instances: r.Histogram("report_kernel_instances_us", "Wall-clock microseconds building one machine's instance table."),
		Lifetimes: r.Histogram("report_kernel_lifetimes_us", "Wall-clock microseconds for one machine's lifetime scan."),
		Controls:  r.Histogram("report_kernel_controls_us", "Wall-clock microseconds for one machine's control statistics."),
		Cache:     r.Histogram("report_kernel_cache_us", "Wall-clock microseconds for one machine's cache measures."),
		Reuse:     r.Histogram("report_kernel_reuse_us", "Wall-clock microseconds for one machine's reuse statistics."),
		FastIO:    r.Histogram("report_kernel_fastio_us", "Wall-clock microseconds for one machine's FastIO shares."),
	}
}

// ComputeWorkersTrace is ComputeWorkers with optional instrumentation:
// perMachine receives one measure duration (microseconds) per machine,
// kt one per machine per kernel, and each machine's measure pass
// becomes one wall-clock trace on tr (family "compute") with a child
// span per kernel, mirroring the KernelTimers split. Trace IDs derive
// from the machine name, so runs over the same corpus produce the same
// IDs. Nil histograms, timers and tracer are no-ops, and neither timing
// nor tracing alters the computed results.
func ComputeWorkersTrace(ds *analysis.DataSet, workers int, perMachine *obs.Histogram, kt *KernelTimers, tr *trace.Tracer) *Results {
	slots := make([]machineMeasures, len(ds.Machines))
	measure := func(i int) {
		mt := ds.Machines[i]
		m := &slots[i]
		start := time.Now()
		// Nil histograms and nil spans are no-ops, so this one kernel
		// walk serves every combination of timing and tracing.
		var hIns, hLt, hC, hCm, hRu, hF *obs.Histogram
		if kt != nil {
			hIns, hLt, hC, hCm, hRu, hF = kt.Instances, kt.Lifetimes, kt.Controls, kt.Cache, kt.Reuse, kt.FastIO
		}
		root := tr.StartTrace("compute", mt.Name, trace.HashID("compute", mt.Name), nil)
		kernel := func(name string, h *obs.Histogram, f func()) {
			sp := root.Child(name)
			t0 := time.Now()
			f()
			h.ObserveWall(time.Since(t0))
			sp.Finish()
		}
		kernel("instances", hIns, func() { m.ins = mt.Instances() })
		kernel("lifetimes", hLt, func() { m.lt = analysis.Lifetimes(mt) })
		kernel("controls", hC, func() { m.c = analysis.Controls(mt, m.ins) })
		kernel("cache", hCm, func() { m.cm = analysis.Cache(mt, m.ins) })
		kernel("reuse", hRu, func() { m.ru = analysis.Reuse(m.ins) })
		kernel("fastio", hF, func() { m.rs, m.ws = analysis.FastIOShares(mt) })
		root.AnnotateInt("instances", int64(len(m.ins)))
		root.Finish()
		perMachine.ObserveWall(time.Since(start))
	}
	par.For(workers, len(ds.Machines), measure)

	r := &Results{DS: ds, PerMachine: map[string][]*analysis.Instance{}}
	for mi, mt := range ds.Machines {
		ins := slots[mi].ins
		r.PerMachine[mt.Name] = ins
		r.All = append(r.All, ins...)

		lt := slots[mi].lt
		r.Lifetimes.Samples = append(r.Lifetimes.Samples, lt.Samples...)
		r.Lifetimes.Births += lt.Births
		r.Lifetimes.SurvivorCount += lt.SurvivorCount

		c := slots[mi].c
		r.Controls.Opens += c.Opens
		r.Controls.FailedOpens += c.FailedOpens
		r.Controls.ControlOnly += c.ControlOnly
		r.Controls.NotFoundErrors += c.NotFoundErrors
		r.Controls.CollisionErrors += c.CollisionErrors
		r.Controls.ReadErrors += c.ReadErrors
		r.Controls.Reads += c.Reads
		r.Controls.VolumeMountedOps += c.VolumeMountedOps
		r.Controls.SetEndOfFileOps += c.SetEndOfFileOps

		cm := slots[mi].cm
		r.Cache.Reads += cm.Reads
		r.Cache.ReadsFromCache += cm.ReadsFromCache
		r.Cache.ReadSessions += cm.ReadSessions
		r.Cache.SinglePrefetch += cm.SinglePrefetch
		r.Cache.ReadAheadOps += cm.ReadAheadOps
		r.Cache.LazyWriteOps += cm.LazyWriteOps
		r.Cache.FlushOps += cm.FlushOps
		r.Cache.WriteSessions += cm.WriteSessions
		r.Cache.FlushPerWrite += cm.FlushPerWrite
		r.Cache.CacheDisabledSessions += cm.CacheDisabledSessions
		r.Cache.DataSessions += cm.DataSessions

		ru := slots[mi].ru
		r.Reuse.ReadOnlyPaths += ru.ReadOnlyPaths
		r.Reuse.ReadOnlyReopened += ru.ReadOnlyReopened
		r.Reuse.WriteOnlyPaths += ru.WriteOnlyPaths
		r.Reuse.WriteOnlyReWritten += ru.WriteOnlyReWritten
		r.Reuse.WriteOnlyThenRead += ru.WriteOnlyThenRead
		r.Reuse.ReadWritePaths += ru.ReadWritePaths
		r.Reuse.ReadWriteReopened += ru.ReadWriteReopened

		rs, ws := slots[mi].rs, slots[mi].ws
		r.ReadShares = append(r.ReadShares, rs)
		r.WriteShares = append(r.WriteShares, ws)
	}
	return r
}

// mean of a float slice (0 for empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// cdfTable renders a CDF as aligned columns of (value, cumulative %).
func cdfTable(title, unit string, c *stats.CDF, points int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s  (n=%d)\n", title, c.N())
	fmt.Fprintf(&b, "  %14s  %8s\n", unit, "cum %")
	for _, p := range c.Points(points, true) {
		fmt.Fprintf(&b, "  %14.4g  %8.1f\n", p.Value, p.Fraction*100)
	}
	return b.String()
}

// quantileLine summarises key CDF marks on one line.
func quantileLine(name string, c *stats.CDF, unit string) string {
	if c.N() == 0 {
		return fmt.Sprintf("  %-28s (no samples)\n", name)
	}
	return fmt.Sprintf("  %-28s p50=%.4g%s p75=%.4g%s p90=%.4g%s p99=%.4g%s\n",
		name,
		c.Quantile(0.50), unit, c.Quantile(0.75), unit,
		c.Quantile(0.90), unit, c.Quantile(0.99), unit)
}

// machineNames returns sorted machine names.
func (r *Results) machineNames() []string {
	names := make([]string, 0, len(r.PerMachine))
	for n := range r.PerMachine {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// perMachineRange computes f per machine and returns mean, min, max.
func (r *Results) perMachineRange(f func(ins []*analysis.Instance) float64) (avg, lo, hi float64) {
	var vals []float64
	for _, name := range r.machineNames() {
		vals = append(vals, f(r.PerMachine[name]))
	}
	if len(vals) == 0 {
		return 0, 0, 0
	}
	lo, hi = vals[0], vals[0]
	for _, v := range vals {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return mean(vals), lo, hi
}

// HoldCDF builds the hold-time CDF (ms) under a predicate.
func (r *Results) HoldCDF(pred func(*analysis.Instance) bool) *stats.CDF {
	return stats.NewCDF(analysis.HoldTimes(r.All, pred))
}

// OpenGapSampleMachine picks the machine with the most records (the
// "randomly chosen" single trace file of Figures 8–10).
func (r *Results) OpenGapSampleMachine() *analysis.MachineTrace {
	var best *analysis.MachineTrace
	for _, mt := range r.DS.Machines {
		if best == nil || mt.Len() > best.Len() {
			best = mt
		}
	}
	return best
}

// TotalRecords counts trace records in the data set.
func (r *Results) TotalRecords() int {
	n := 0
	for _, mt := range r.DS.Machines {
		n += mt.Len()
	}
	return n
}

// Duration returns the trace time span. Records are sorted by start
// time, so each machine contributes its first and last record only.
func (r *Results) Duration() sim.Duration {
	var lo, hi sim.Time
	first := true
	for _, mt := range r.DS.Machines {
		if mt.Len() == 0 {
			continue
		}
		if t := mt.FirstStart(); first || t < lo {
			lo = t
		}
		if t := mt.LastStart(); first || t > hi {
			hi = t
		}
		first = false
	}
	return hi.Sub(lo)
}
