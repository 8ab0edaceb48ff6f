package query

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/trace"
)

// TestScanTraceSpans pins the instrumented request shape: a cold scan
// returns its trace ID in X-Trace-Id, and the flight recorder holds a
// span tree covering admission → cache probe → per-machine fan-out
// (with the colstore block ledger) → merge → encode.
func TestScanTraceSpans(t *testing.T) {
	dir := corpusDir(t)
	tr := trace.New(trace.Config{})
	svc, _ := newTestService(t, dir, Config{Workers: 2, Tracer: tr})
	h := svc.Handler()

	code, hdr, _ := get(t, h, scanPath)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	tidStr := hdr.Get("X-Trace-Id")
	if tidStr == "" {
		t.Fatal("no X-Trace-Id header on traced request")
	}
	tid, err := trace.ParseID(tidStr)
	if err != nil {
		t.Fatalf("bad X-Trace-Id %q: %v", tidStr, err)
	}
	snap, ok := tr.Find(tid)
	if !ok {
		t.Fatalf("trace %s not in flight recorder", tidStr)
	}
	stages := map[string]int{}
	var machineScans []trace.SpanSnapshot
	for _, sp := range snap.Spans {
		stage, _, _ := strings.Cut(sp.Name, " ")
		stages[stage]++
		if stage == "scan" && sp.ParentID != 0 {
			machineScans = append(machineScans, sp)
		}
	}
	for _, want := range []string{"admit", "cache", "scan", "merge", "encode"} {
		if stages[want] == 0 {
			t.Errorf("stage %q missing from trace: %v", want, stages)
		}
	}
	if len(machineScans) != len(svc.Corpus().Machines()) {
		t.Errorf("%d machine scan spans, want %d", len(machineScans), len(svc.Corpus().Machines()))
	}
	for _, sp := range machineScans {
		if sp.Attr("blocks_scanned") == "" || sp.Attr("blocks_skipped") == "" {
			t.Errorf("scan span %q missing block ledger: %+v", sp.Name, sp.Attrs)
		}
		if sp.Attr("rows") == "" {
			t.Errorf("scan span %q missing rows: %+v", sp.Name, sp.Attrs)
		}
	}

	// The cached replay is a distinct trace whose cache probe hits.
	code, hdr2, _ := get(t, h, scanPath)
	if code != http.StatusOK {
		t.Fatalf("cached status %d", code)
	}
	tid2, err := trace.ParseID(hdr2.Get("X-Trace-Id"))
	if err != nil || tid2 == tid {
		t.Fatalf("cached request trace id %v (err %v), want distinct from %v", tid2, err, tid)
	}
	snap2, ok := tr.Find(tid2)
	if !ok {
		t.Fatal("cached trace not recorded")
	}
	var hitProbe bool
	for _, sp := range snap2.Spans {
		if sp.Name == "cache" && sp.Attr("result") == "hit" {
			hitProbe = true
		}
		if strings.HasPrefix(sp.Name, "scan ") {
			t.Errorf("cache hit still fanned out: %q", sp.Name)
		}
	}
	if !hitProbe {
		t.Error("cached request has no hit-annotated cache probe")
	}
}

// TestTraceIDsReproducible pins ID determinism across processes: two
// fresh services over the same corpus given the same request sequence
// hand out identical trace IDs.
func TestTraceIDsReproducible(t *testing.T) {
	dir := corpusDir(t)
	run := func() []string {
		svc, _ := newTestService(t, dir, Config{Workers: 2, Tracer: trace.New(trace.Config{})})
		h := svc.Handler()
		var ids []string
		for _, p := range []string{scanPath, scanPath, "/v1/machines", "/v1/scan?limit=5"} {
			_, hdr, _ := get(t, h, p)
			ids = append(ids, hdr.Get("X-Trace-Id"))
		}
		return ids
	}
	a, b := run(), run()
	for i := range a {
		if a[i] == "" || a[i] != b[i] {
			t.Errorf("request %d trace id %q vs %q, want equal and non-empty", i, a[i], b[i])
		}
	}
	if a[0] == a[1] {
		t.Error("repeated request got the same trace id; sequence must differentiate")
	}
}

// TestUntracedServiceHasNoHeader pins the nil contract end to end: no
// tracer, no header, no recorder, identical response bodies.
func TestUntracedServiceHasNoHeader(t *testing.T) {
	dir := corpusDir(t)
	svc, _ := newTestService(t, dir, Config{Workers: 2})
	code, hdr, bodyOff := get(t, svc.Handler(), scanPath)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if got := hdr.Get("X-Trace-Id"); got != "" {
		t.Errorf("untraced service set X-Trace-Id %q", got)
	}
	svcT, _ := newTestService(t, dir, Config{Workers: 2, Tracer: trace.New(trace.Config{})})
	_, _, bodyOn := get(t, svcT.Handler(), scanPath)
	if string(bodyOff) != string(bodyOn) {
		t.Error("tracing changed the response body")
	}
}

// TestLatencyExemplarResolvable pins the histogram↔trace bridge: after
// a traced request, the Prometheus text output carries an exemplar
// comment whose trace ID resolves in the flight recorder.
func TestLatencyExemplarResolvable(t *testing.T) {
	dir := corpusDir(t)
	reg := obs.NewRegistry()
	tr := trace.New(trace.Config{})
	svc, _ := newTestService(t, dir, Config{Workers: 2, Obs: reg, Tracer: tr})
	get(t, svc.Handler(), scanPath)

	var b strings.Builder
	if err := reg.Render(&b); err != nil {
		t.Fatal(err)
	}
	var tidStr string
	for _, line := range strings.Split(b.String(), "\n") {
		if strings.HasPrefix(line, "# exemplar query_request_wall_us_bucket") {
			i := strings.Index(line, "trace_id=")
			tidStr = line[i+len("trace_id=") : i+len("trace_id=")+16]
			break
		}
	}
	if tidStr == "" {
		t.Fatalf("no exemplar comment in metrics output:\n%s", b.String())
	}
	tid, err := trace.ParseID(tidStr)
	if err != nil {
		t.Fatalf("bad exemplar trace id %q: %v", tidStr, err)
	}
	if _, ok := tr.Find(tid); !ok {
		t.Fatalf("exemplar trace %s not resolvable in flight recorder", tidStr)
	}
}

// TestSlowQueryLog pins the slow-log view: the stage breakdown is read
// back from the request's own spans, one line per offending request.
func TestSlowQueryLog(t *testing.T) {
	dir := corpusDir(t)
	var lines []string
	tr := trace.New(trace.Config{})
	svc, _ := newTestService(t, dir, Config{
		Workers: 2,
		Tracer:  tr,
		SlowMS:  1,
		Logf:    func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) },
	})
	h := svc.Handler()

	// Drive a real request to seal a genuine trace, then replay the
	// slow-log decision with an explicit wall time on both sides of the
	// threshold so the test never depends on machine speed.
	_, hdr, _ := get(t, h, scanPath)
	tid, err := trace.ParseID(hdr.Get("X-Trace-Id"))
	if err != nil {
		t.Fatal(err)
	}
	snap, ok := tr.Find(tid)
	if !ok {
		t.Fatal("trace not recorded")
	}
	root := findRoot(t, tr, snap)
	req := httptest.NewRequest("GET", scanPath, nil)

	lines = nil
	svc.maybeLogSlow("scan", req, root, 500*time.Microsecond)
	if len(lines) != 0 {
		t.Fatalf("sub-threshold request logged: %v", lines)
	}
	svc.maybeLogSlow("scan", req, root, 25*time.Millisecond)
	if len(lines) != 1 {
		t.Fatalf("slow request logged %d lines, want 1: %v", len(lines), lines)
	}
	line := lines[0]
	for _, want := range []string{
		"method=GET", "endpoint=scan", "wall_ms=25", "cache=miss",
		"trace=" + tid.String(), "admit=", "scan=", "merge=", "encode=",
	} {
		if !strings.Contains(line, want) {
			t.Errorf("slow log line missing %q:\n%s", want, line)
		}
	}
}

// findRoot rebuilds a *Span handle for maybeLogSlow from a sealed
// snapshot by re-looking it up — the root span is identified by its
// span ID equaling the trace ID.
func findRoot(t *testing.T, tr *trace.Tracer, snap trace.TraceSnapshot) *trace.Span {
	t.Helper()
	// maybeLogSlow only reads TraceID from the span; a fresh root with
	// the same ID in a throwaway trace serves as the handle.
	return tr.StartTrace(snap.Family, snap.Name, snap.TraceID, nil)
}
