package main

import (
	"os"
	"path/filepath"
	"time"

	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/report"
)

// reproduceState is what the reproduce iterations of one run share: the
// pinned per-machine stream digests and report.
type reproduceState struct {
	sums   map[string]string
	segs   map[string]string
	report reportChecker
}

// reproduceTimes is one pipeline's wall-clock breakdown.
type reproduceTimes struct {
	newStudy, total time.Duration
}

// runReproduce repeats the full fsreport pipeline from the seed until the
// run's time is used. Set-up is core.NewStudy, the fleet's construction
// (file-system population and machine assembly), timed inside every
// pipeline; the operation is the whole pipeline including it.
func runReproduce(r *run) error {
	r.stampStudy()
	st := &reproduceState{}
	if r.traced {
		return tracedRun(r, func(tc *tracing) (time.Duration, error) {
			t, err := reproduceOnce(r, st, tc)
			return t.total, err
		})
	}
	var setup, ops, rss []float64
	start := time.Now()
	for len(ops) == 0 || time.Since(start).Seconds() < r.seconds {
		freshHeap()
		t, err := reproduceOnce(r, st, nil)
		if err != nil {
			return err
		}
		setup = append(setup, seconds(t.newStudy))
		ops = append(ops, millis(t.total))
		rss = append(rss, peakRSSMB())
	}
	r.setOps(ops)
	r.set("setup_s", median(setup))
	r.set("throughput_per_s", machineMinutes/(r.values["op_p50_ms"]/1e3))
	r.set("peak_rss_mb", median(rss))
	return nil
}

// reproduceOnce runs seed → NewStudy → Run → Save → DataSet → compute →
// render, then checks the outputs outside the timed section. The saved
// corpus stays in the run's scratch until the next pipeline replaces it.
// With tc set the study runs fully instrumented and each stage is
// recorded as a span.
func reproduceOnce(r *run, st *reproduceState, tc *tracing) (reproduceTimes, error) {
	var t reproduceTimes
	dir := filepath.Join(r.work, "corpus")
	if err := os.RemoveAll(dir); err != nil {
		return t, err
	}
	cfg := studyConfig(r.seed)
	cfg.Obs, cfg.Trace = tc.registry(), tc.tracer()

	root := tc.span("reproduce")
	t0 := time.Now()
	sp := root.Child("core.NewStudy")
	study := core.NewStudy(cfg)
	sp.Finish()
	t.newStudy = time.Since(t0)

	sp = root.Child("Study.Run")
	if err := study.Run(); err != nil {
		return t, err
	}
	sp.Finish()

	sp = root.Child("Study.Save")
	if err := study.Save(dir); err != nil {
		return t, err
	}
	sp.Finish()

	sp = root.Child("Study.DataSet")
	ds, err := study.DataSet()
	if err != nil {
		return t, err
	}
	sp.Finish()

	sp = root.Child("report.ComputeWorkers")
	var res *report.Results
	if tc == nil {
		res = report.ComputeWorkers(ds, workers())
	} else {
		res = report.ComputeWorkersTrace(ds, workers(), nil, report.NewKernelTimers(tc.reg), tc.tr)
	}
	sp.Finish()

	sp = root.Child("report.render")
	rd := renderReport(res, study.Snapshots)
	sp.Finish()
	sp = root.Child("report.CacheSweep")
	rd.sweep = renderSweep(res)
	sp.Finish()
	root.Finish()
	t.total = time.Since(t0)
	records := study.TotalEvents()

	// Output checks, untimed: stream digests and saved segments repeat
	// across pipelines of one seed and equal the seed's pins, and on the
	// first pipeline every segment's logical digest equals the digest of
	// the collected rows.
	sums, err := streamSums(study)
	if err != nil {
		return t, err
	}
	segs, err := collect.LoadColumnarDir(dir, nil)
	if err != nil {
		return t, err
	}
	if st.sums == nil {
		st.sums = sums
		st.segs, err = rowDigests(study)
		if err != nil {
			return t, err
		}
	}
	r.check(len(sums) == len(st.sums), "collected %d machines, first pipeline %d", len(sums), len(st.sums))
	for m, sum := range sums {
		r.check(sum == st.sums[m], "machine %s stream digest changed between pipelines of one seed", m)
	}
	r.checkStreamPins(r.pins, sums)
	r.checkSegments(segs, st.segs)
	r.check(records > 0, "pipeline collected no records")
	r.checkReport(&st.report, rd.text())
	if tc != nil {
		tc.reproduceMetrics(r, study, dir, records)
	}
	r.params["records"] = records
	r.params["snapshot_bytes"] = dirBytes(dir, ".snap.json")
	return t, nil
}
