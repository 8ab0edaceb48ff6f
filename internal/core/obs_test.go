package core

import (
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// obsConfig is the small fleet shared by the observability tests; only
// the Obs registry varies between runs.
func obsConfig(r *obs.Registry) Config {
	return Config{
		Seed:            7,
		Machines:        5,
		Duration:        sim.Hour,
		WithNetwork:     true,
		SnapshotAtStart: true,
		Workers:         2,
		Obs:             r,
	}
}

// runObsStudy runs one study and renders a report digest covering every
// derived family (summary tables plus the cache section), the surface an
// instrumentation bug would perturb.
func runObsStudy(t *testing.T, r *obs.Registry, prepare func(*Node)) (*Study, string) {
	t.Helper()
	cfg := obsConfig(r)
	cfg.Prepare = prepare
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

// TestObsDeterminism is the subsystem's core guarantee: enabling
// instrumentation changes nothing observable. The same seed must produce
// byte-identical per-machine trace streams (SHA-256 of the compressed
// stream) and a byte-identical rendered report whether the registry is
// nil or live.
func TestObsDeterminism(t *testing.T) {
	bare, bareReport := runObsStudy(t, nil, nil)
	reg := obs.NewRegistry()
	var built builtNodes
	inst, instReport := runObsStudy(t, reg, built.prepare)

	bm, im := bare.Store.Machines(), inst.Store.Machines()
	if len(bm) != len(im) {
		t.Fatalf("machine count diverged: %d without obs, %d with", len(bm), len(im))
	}
	for i, name := range bm {
		if im[i] != name {
			t.Fatalf("machine order diverged at %d: %s vs %s", i, name, im[i])
		}
		want, err := bare.Store.StreamSum(name)
		if err != nil {
			t.Fatalf("StreamSum(%s): %v", name, err)
		}
		got, err := inst.Store.StreamSum(name)
		if err != nil {
			t.Fatalf("StreamSum(%s) with obs: %v", name, err)
		}
		if want != got {
			t.Errorf("%s: trace stream diverged with obs enabled", name)
		}
	}
	if bareReport != instReport {
		t.Errorf("rendered report diverged with obs enabled (%d vs %d bytes)",
			len(bareReport), len(instReport))
	}

	// The instrumented run's registry must expose families from every
	// layer of the stack (kernel I/O, cache, trace driver, fleet engine,
	// analysis/report workers).
	var buf strings.Builder
	if err := reg.Render(&buf); err != nil {
		t.Fatalf("Render: %v", err)
	}
	text := buf.String()
	for _, fam := range []string{
		"iomgr_irp_dispatches_total",
		"iomgr_fastio_attempts_total",
		"cachemgr_read_requests_total",
		"cachemgr_lazy_write_bursts_total",
		"tracedrv_records_total",
		"tracedrv_buffer_flushes_total",
		"fleet_shard_sim_now_ticks",
		"fleet_events_per_sec",
		"analysis_decode_machine_us",
		"report_compute_machine_us",
		"study_machines",
	} {
		if !strings.Contains(text, fam) {
			t.Errorf("rendered metrics missing family %s", fam)
		}
	}

	// Cross-check one obs family against the simulation's own ground
	// truth: the fleet-wide read counter must equal the cache managers'
	// summed Stats.
	var wantReads, wantHits uint64
	if len(built.nodes) != inst.Cfg.Machines {
		t.Fatalf("study built %d machines, want %d", len(built.nodes), inst.Cfg.Machines)
	}
	for _, n := range built.nodes {
		wantReads += n.M.Cache.Stats.ReadRequests
		wantHits += n.M.Cache.Stats.ReadsFromCache
	}
	if got := reg.Counter("cachemgr_read_requests_total", "").Value(); got != wantReads {
		t.Errorf("cachemgr_read_requests_total = %d, Manager.Stats sum = %d", got, wantReads)
	}
	if got := reg.Counter("cachemgr_read_hits_total", "").Value(); got != wantHits {
		t.Errorf("cachemgr_read_hits_total = %d, Manager.Stats sum = %d", got, wantHits)
	}
	if wantReads == 0 {
		t.Error("study exercised no cache reads; cross-check is vacuous")
	}
}
