package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/report"
)

// corpusBuilds is how many times set-up builds the corpus; setup_s is
// the median build.
const corpusBuilds = 3

// setupCorpus builds the seed's corpus corpusBuilds times, each in a
// child process of its own, so the simulation's memory never counts
// toward this process's peak RSS and every build starts cold as fsreport
// would. It keeps the last build, checks that every build stored the same
// streams (and the seed's pins, when it has them), and returns the
// median of the children's own timings.
func setupCorpus(r *run, dir string) (time.Duration, error) {
	var builds []float64
	var first map[string]string
	for i := 0; i < corpusBuilds; i++ {
		if err := os.RemoveAll(dir); err != nil {
			return 0, err
		}
		d, err := buildCorpusChild(r.seed, dir)
		if err != nil {
			return 0, err
		}
		builds = append(builds, seconds(d))
		_, streams, err := readExpect(dir)
		if err != nil {
			return 0, err
		}
		if first == nil {
			first = streams
			r.checkStreamPins(r.pins, streams)
			continue
		}
		same := len(streams) == len(first)
		for m, sum := range streams {
			same = same && sum == first[m]
		}
		r.check(same, "corpus build %d stored other streams than build 1", i+1)
	}
	r.params["setup_builds_s"] = builds
	return time.Duration(median(builds) * float64(time.Second)), nil
}

// buildCorpusChild runs one corpus build in a child process and returns
// the child's own timing of it.
func buildCorpusChild(seed uint64, dir string) (time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "-build-corpus", dir, "-seed", strconv.FormatUint(seed, 10))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("corpus build: %w", err)
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if ns, ok := strings.CutPrefix(sc.Text(), "setup_ns "); ok {
			n, err := strconv.ParseInt(ns, 10, 64)
			if err != nil {
				return 0, fmt.Errorf("corpus build: %w", err)
			}
			return time.Duration(n), nil
		}
	}
	return 0, fmt.Errorf("corpus build printed no timing")
}

// analyzeState is shared by the analyze iterations of one run.
type analyzeState struct {
	want   map[string]string
	report reportChecker
}

// runAnalyze reloads the saved corpus, computes and renders the report
// again and again: fsreport -in. No simulation runs after set-up.
func runAnalyze(r *run) error {
	r.stampStudy()
	dir := filepath.Join(r.work, "corpus")
	build, err := setupCorpus(r, dir)
	if err != nil {
		return err
	}
	want, _, err := readExpect(dir)
	if err != nil {
		return err
	}
	st := &analyzeState{want: want}
	if r.traced {
		return tracedRun(r, func(tc *tracing) (time.Duration, error) {
			return analyzeOnce(r, dir, st, tc)
		})
	}
	var ops, rss []float64
	start := time.Now()
	for len(ops) == 0 || time.Since(start).Seconds() < r.seconds {
		freshHeap()
		total, err := analyzeOnce(r, dir, st, nil)
		if err != nil {
			return err
		}
		ops = append(ops, millis(total))
		rss = append(rss, peakRSSMB())
	}
	r.setOps(ops)
	r.set("setup_s", seconds(build))
	r.set("throughput_per_s", machineMinutes/(r.values["op_p50_ms"]/1e3))
	r.set("peak_rss_mb", median(rss))
	return nil
}

// analyzeOnce is one load → compute → render pass. It returns the pass's
// wall time.
func analyzeOnce(r *run, dir string, st *analyzeState, tc *tracing) (time.Duration, error) {
	root := tc.span("analyze")
	t0 := time.Now()
	sp := root.Child("core.LoadCorpus")
	c, err := core.LoadCorpusTrace(dir, tc.registry(), tc.tracer())
	if err != nil {
		return 0, err
	}
	sp.Finish()

	sp = root.Child("report.ComputeWorkers")
	var res *report.Results
	if tc == nil {
		res = report.ComputeWorkers(c.DS, workers())
	} else {
		res = report.ComputeWorkersTrace(c.DS, workers(), nil, report.NewKernelTimers(tc.reg), tc.tr)
	}
	sp.Finish()
	sp = root.Child("report.render")
	rd := renderReport(res, c.Snaps)
	sp.Finish()
	sp = root.Child("report.CacheSweep")
	rd.sweep = renderSweep(res)
	sp.Finish()
	root.Finish()
	total := time.Since(t0)

	records := 0
	for _, seg := range c.Segments {
		records += seg.Records()
	}
	r.checkSegments(c.Segments, st.want)
	r.check(len(c.DS.Machines) == len(st.want), "loaded %d machines, corpus has %d", len(c.DS.Machines), len(st.want))
	r.checkReport(&st.report, rd.text())
	r.params["records"] = records
	r.params["corpus_bytes"] = dirBytes(dir, "")
	r.params["snapshot_bytes"] = dirBytes(dir, ".snap.json")
	if tc != nil {
		tc.loadMetrics(r)
		tc.computeMetrics(r)
		variants := r.checkSection5Stability(res, c.Snaps, 4)
		fmt.Fprintf(os.Stderr, "perfbench: Section 5 self-test: 5 renders, %d distinct exemplar lines, all other lines identical\n", variants)
	}
	return total, nil
}
