package core

import (
	"sort"
	"strconv"
	"testing"

	"repro/internal/obs/trace"
)

// runTraceStudy runs the shared small fleet with an optional tracer and
// returns the study plus the report digest the obs tests use.
func runTraceStudy(t *testing.T, tr *trace.Tracer) (*Study, string) {
	t.Helper()
	cfg := obsConfig(nil)
	cfg.Trace = tr
	s := NewStudy(cfg)
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	res, err := s.Results()
	if err != nil {
		t.Fatalf("Results: %v", err)
	}
	return s, res.Table1() + res.Table2() + res.Table3() + res.Section8() + res.Section9()
}

// traceIDs collects every recorded trace ID, sorted, keyed by family.
func traceIDs(tr *trace.Tracer) map[string][]trace.ID {
	out := map[string][]trace.ID{}
	for _, snap := range tr.Recent(0) {
		out[snap.Family] = append(out[snap.Family], snap.TraceID)
	}
	for fam := range out {
		ids := out[fam]
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	}
	return out
}

// TestTraceDeterminism is the tracer's core guarantee, mirroring
// TestObsDeterminism: turning span recording on changes nothing
// observable — same seed, byte-identical per-machine trace streams and
// rendered report — and, because IDs derive from shard/machine identity
// rather than randomness, two traced runs record identical trace IDs.
func TestTraceDeterminism(t *testing.T) {
	bare, bareReport := runTraceStudy(t, nil)
	tr := trace.New(trace.Config{Recent: 4096})
	traced, tracedReport := runTraceStudy(t, tr)

	bm, tm := bare.Store.Machines(), traced.Store.Machines()
	if len(bm) != len(tm) {
		t.Fatalf("machine count diverged: %d untraced, %d traced", len(bm), len(tm))
	}
	for i, name := range bm {
		if tm[i] != name {
			t.Fatalf("machine order diverged at %d: %s vs %s", i, name, tm[i])
		}
		want, err := bare.Store.StreamSum(name)
		if err != nil {
			t.Fatalf("StreamSum(%s): %v", name, err)
		}
		got, err := traced.Store.StreamSum(name)
		if err != nil {
			t.Fatalf("StreamSum(%s) traced: %v", name, err)
		}
		if want != got {
			t.Errorf("%s: trace stream diverged with tracing enabled", name)
		}
	}
	if bareReport != tracedReport {
		t.Errorf("rendered report diverged with tracing enabled (%d vs %d bytes)",
			len(bareReport), len(tracedReport))
	}

	// The traced run must have recorded the instrumented layers: one
	// shard trace per machine on the virtual timeline, and one build,
	// one decode and one compute trace per machine on the wall timeline.
	ids := traceIDs(tr)
	for _, fam := range []string{"shard", "build", "decode", "compute"} {
		if len(ids[fam]) != len(tm) {
			t.Errorf("family %q: %d traces, want %d", fam, len(ids[fam]), len(tm))
		}
	}

	// Each build is annotated with the files and directories its
	// volumes were generated with.
	for _, snap := range tr.Recent(0) {
		if snap.Family != "build" {
			continue
		}
		for _, key := range []string{"files", "dirs"} {
			if n, err := strconv.Atoi(snap.Spans[0].Attr(key)); err != nil || n <= 0 {
				t.Errorf("build %s: %s = %q", snap.Name, key, snap.Spans[0].Attr(key))
			}
		}
	}

	// Each snapshot walk records one wall-clock span per local volume,
	// annotated with the walk's record count.
	walkRecords := map[trace.ID]int64{}
	for _, snap := range tr.Recent(0) {
		if snap.Family == "walk" {
			for _, a := range snap.Spans[0].Attrs {
				if a.Key == "records" {
					walkRecords[snap.TraceID] = a.Int
				}
			}
		}
	}
	var snapRecords, spanRecords int64
	for _, snap := range traced.Snapshots {
		snapRecords += int64(snap.Len())
	}
	for _, n := range walkRecords {
		spanRecords += n
	}
	if len(ids["walk"]) != len(traced.Snapshots) || len(walkRecords) != len(traced.Snapshots) || spanRecords != snapRecords {
		t.Errorf("walk family: %d traces (%d distinct) for %d snapshots, %d records annotated for %d taken",
			len(ids["walk"]), len(walkRecords), len(traced.Snapshots), spanRecords, snapRecords)
	}

	// Shard spans ride the virtual clock: the run stage must span the
	// configured sim duration, not wall time.
	cfg := obsConfig(nil)
	var checkedRun bool
	for _, snap := range tr.Recent(0) {
		if snap.Family != "shard" {
			continue
		}
		for _, sp := range snap.Spans {
			if sp.Name == "run" {
				if want := int64(cfg.Duration) * 100; sp.Duration() < want {
					t.Errorf("shard %s run span %dns, want >= %dns of virtual time",
						snap.Name, sp.Duration(), want)
				}
				checkedRun = true
			}
		}
	}
	if !checkedRun {
		t.Error("no shard run span found")
	}

	// A second traced run records the same IDs in every family.
	tr2 := trace.New(trace.Config{Recent: 4096})
	runTraceStudy(t, tr2)
	ids2 := traceIDs(tr2)
	for fam, want := range ids {
		got := ids2[fam]
		if len(got) != len(want) {
			t.Errorf("family %q: rerun recorded %d traces, want %d", fam, len(got), len(want))
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("family %q trace %d: %v vs %v across runs", fam, i, want[i], got[i])
				break
			}
		}
	}
}
