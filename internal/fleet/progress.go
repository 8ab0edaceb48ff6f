package fleet

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/sim"
)

// ShardStatus is one shard's live progress.
type ShardStatus struct {
	Name    string
	State   string
	SimNow  sim.Time
	Events  uint64
	Records int64
	// Wall is the shard's wall-clock run time so far (or total, once done).
	Wall time.Duration
	// Lag is how much virtual time the shard still has to cover.
	Lag sim.Duration
}

// Status is a point-in-time view of the whole fleet's progress.
type Status struct {
	Shards   []ShardStatus
	Duration sim.Duration

	Pending, Running, Done, Restored, Failed int

	Records int64
	Events  uint64
	// EventsPerSec is aggregate scheduler throughput over the run's wall
	// time so far: from the first shard's start to the last one's end,
	// or to now while shards run.
	EventsPerSec float64
	// SimRatio is virtual seconds advanced per wall second of the same
	// span, aggregated over shards.
	SimRatio float64
	// MaxLag is the largest remaining virtual time over unfinished shards.
	MaxLag sim.Duration
	// Slowest names the shard with the largest lag among running shards.
	Slowest string
}

// Status samples every shard's progress gauges — the engine's only
// bookkeeping; Status is a view over them, and the fleet aggregates it
// derives are published back as obs gauges when the engine is registered.
// Safe to call concurrently with Run; gauges are at most one slice stale.
func (e *Engine) Status() Status {
	now := time.Now().UnixNano()
	st := Status{Duration: e.cfg.Duration}
	var first, last int64 // the run's wall span, unix nanos
	var simAdvanced sim.Duration
	for _, sh := range e.ordered() {
		s := ShardStatus{
			Name:    sh.spec.Name,
			State:   stateNames[sh.state.Load()],
			SimNow:  sim.Time(sh.simNow.Value()),
			Events:  uint64(sh.events.Value()),
			Records: sh.records.Value(),
		}
		if start := sh.started.Value(); start != 0 {
			end := sh.ended.Value()
			if end == 0 {
				end = now
			}
			s.Wall = time.Duration(end - start)
			if first == 0 || start < first {
				first = start
			}
			last = max(last, end)
		}
		if remain := e.cfg.Duration - sim.Duration(s.SimNow); remain > 0 {
			s.Lag = remain
		}
		switch s.State {
		case "pending":
			st.Pending++
		case "running":
			st.Running++
			if s.Lag >= st.MaxLag {
				st.MaxLag = s.Lag
				st.Slowest = s.Name
			}
		case "done":
			st.Done++
		case "restored":
			st.Restored++
		case "failed":
			st.Failed++
		}
		if s.State != "restored" {
			st.Events += s.Events
			simAdvanced += sim.Duration(s.SimNow)
		}
		st.Records += s.Records
		st.Shards = append(st.Shards, s)
	}
	if last > first {
		wallSec := float64(last-first) / float64(time.Second)
		st.EventsPerSec = float64(st.Events) / wallSec
		st.SimRatio = simAdvanced.Seconds() / wallSec
	}
	// Publish the aggregates (nil-safe: no-ops without a registry).
	e.aggEventsPerSec.Set(st.EventsPerSec)
	e.aggSimRatio.Set(st.SimRatio)
	e.aggRunning.Set(int64(st.Running))
	e.aggDone.Set(int64(st.Done + st.Restored))
	e.aggFailed.Set(int64(st.Failed))
	e.aggMaxLag.Set(int64(st.MaxLag))
	return st
}

// String renders a one-line progress summary for CLIs.
func (s Status) String() string {
	var b strings.Builder
	total := len(s.Shards)
	fmt.Fprintf(&b, "shards %d/%d done", s.Done+s.Restored, total)
	if s.Restored > 0 {
		fmt.Fprintf(&b, " (%d restored)", s.Restored)
	}
	if s.Running > 0 {
		fmt.Fprintf(&b, ", %d running", s.Running)
	}
	if s.Failed > 0 {
		fmt.Fprintf(&b, ", %d FAILED", s.Failed)
	}
	fmt.Fprintf(&b, " | %d records, %d events", s.Records, s.Events)
	if s.EventsPerSec > 0 {
		fmt.Fprintf(&b, " | %.0f ev/s, sim:real %.0fx", s.EventsPerSec, s.SimRatio)
	}
	if s.Running > 0 && s.Slowest != "" {
		fmt.Fprintf(&b, " | slowest %s lag %s", s.Slowest, s.MaxLag)
	}
	return b.String()
}

// RenderTop writes a top(1)-style multi-line fleet view: the aggregate
// summary line followed by one row per shard, active shards first (by
// lag, largest first), then pending, then finished. Intended for the
// fsfleet -top refresh loop, which repaints it in place.
func (s Status) RenderTop(w io.Writer) {
	fmt.Fprintf(w, "fleet: %s\n", s.String())
	fmt.Fprintf(w, "%-14s %-8s %12s %14s %12s %10s %8s\n",
		"SHARD", "STATE", "RECORDS", "EVENTS", "SIM-TIME", "WALL", "PROG")
	rows := append([]ShardStatus(nil), s.Shards...)
	rank := func(st string) int {
		switch st {
		case "running":
			return 0
		case "failed":
			return 1
		case "pending":
			return 2
		case "done":
			return 3
		default: // restored
			return 4
		}
	}
	sort.SliceStable(rows, func(i, j int) bool {
		ri, rj := rank(rows[i].State), rank(rows[j].State)
		if ri != rj {
			return ri < rj
		}
		return rows[i].Lag > rows[j].Lag
	})
	for _, sh := range rows {
		prog := "-"
		if s.Duration > 0 {
			prog = fmt.Sprintf("%.0f%%", 100*float64(sh.SimNow)/float64(s.Duration))
		}
		wall := "-"
		if sh.Wall > 0 {
			wall = sh.Wall.Truncate(time.Millisecond * 10).String()
		}
		fmt.Fprintf(w, "%-14s %-8s %12d %14d %12s %10s %8s\n",
			sh.Name, sh.State, sh.Records, sh.Events,
			sim.Duration(sh.SimNow).String(), wall, prog)
	}
}
