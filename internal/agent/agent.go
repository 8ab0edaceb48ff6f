// Package agent implements the per-machine trace agent of §3: it is
// started at boot, connects to a collection server, forwards full trace
// buffers from the trace filter drivers, suspends local collection while
// disconnected, and at 4 o'clock each morning starts a thread that walks
// the local file systems to take the daily snapshot (a walk of a 2 GB
// disk takes 30–90 seconds on the paper's 200 MHz P6 — the agent models
// that cost on the virtual clock).
package agent

import (
	"repro/internal/ntos/machine"
	"repro/internal/obs/trace"
	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/tracefmt"
)

// Sink receives trace buffers and snapshots on the collection side.
//
// When machines run on parallel fleet shards, one Sink is shared by every
// agent, so implementations must be safe for concurrent use across
// machines. Calls for a single machine always come from that machine's
// shard goroutine, in virtual-time order.
type Sink interface {
	// TraceBuffer stores one shipped buffer for the named machine.
	TraceBuffer(mch string, recs []tracefmt.Record)
	// Snapshot stores one daily volume snapshot.
	Snapshot(snap *snapshot.Snapshot)
}

// Stats tracks agent behaviour.
type Stats struct {
	BuffersForwarded uint64
	RecordsForwarded uint64
	BuffersDropped   uint64 // while disconnected (collection suspended)
	SnapshotsTaken   uint64
	// LastWalk is the duration of the most recent snapshot walk.
	LastWalk sim.Duration
}

// Agent is one machine's trace agent.
type Agent struct {
	m     *machine.Machine
	sink  Sink
	sched *sim.Scheduler

	connected bool
	// SnapshotHour is the local hour for the daily walk (default 4).
	SnapshotHour int

	snapshotTimer *sim.Event

	// Trace, when set, records each volume walk as a wall-clock span in
	// the "walk" family, so walks are timed apart from the simulation
	// around them. Nil records nothing.
	Trace *trace.Tracer

	Stats Stats
}

// New creates the agent for m, delivering to sink. Call Attach to wire the
// machine's trace drivers to this agent, then Start.
func New(m *machine.Machine, sink Sink) *Agent {
	return &Agent{m: m, sink: sink, sched: m.Sched, connected: true, SnapshotHour: 4}
}

// Flush is the tracedrv.FlushFunc to install on the machine's trace
// drivers: buffers forward to the sink while the agent is connected, and
// are dropped (collection suspended) otherwise.
func (a *Agent) Flush(recs []tracefmt.Record) {
	if !a.connected {
		a.Stats.BuffersDropped++
		return
	}
	a.Stats.BuffersForwarded++
	a.Stats.RecordsForwarded += uint64(len(recs))
	a.sink.TraceBuffer(a.m.Name, recs)
}

// SetConnected changes the collection-server link state. While down, the
// agent "will suspend the local operation until the connection is
// re-established" (§3).
func (a *Agent) SetConnected(up bool) { a.connected = up }

// Connected reports the link state.
func (a *Agent) Connected() bool { return a.connected }

// Start schedules the daily snapshot thread.
func (a *Agent) Start() {
	a.scheduleNextSnapshot()
}

// Stop cancels pending snapshot work.
func (a *Agent) Stop() {
	if a.snapshotTimer != nil {
		a.snapshotTimer.Cancel()
		a.snapshotTimer = nil
	}
}

// scheduleNextSnapshot arms the 4 a.m. walk. Simulation time zero is
// midnight of day one.
func (a *Agent) scheduleNextSnapshot() {
	now := a.sched.Now()
	dayStart := now - now%sim.Time(sim.Day)
	next := dayStart.Add(sim.Duration(a.SnapshotHour) * sim.Hour)
	if next <= now {
		next = next.Add(sim.Day)
	}
	a.snapshotTimer = a.sched.At(next, func(*sim.Scheduler) {
		a.TakeSnapshots()
		a.scheduleNextSnapshot()
	})
}

// TakeSnapshots walks every local volume now (also callable directly for
// study start/end snapshots). The walk cost is charged to the virtual
// clock at roughly the paper's rate (30–90 s per 2 GB ≈ tens of
// microseconds per node on these trees).
func (a *Agent) TakeSnapshots() {
	for _, v := range a.m.Volumes {
		if v.Mount.Remote {
			continue // snapshots cover local file systems (§3.1)
		}
		if v.Trace != nil {
			v.Trace.Mark(tracefmt.EvSnapshotStart)
		}
		start := a.sched.Now()
		sp := a.walkSpan(v.Mount.Prefix)
		snap := snapshot.Take(a.m.Name, v.Mount.Prefix, v.FS, start)
		sp.AnnotateInt("records", int64(snap.Len()))
		sp.Finish()
		// Walk cost: ~1.5 ms per record puts a 30k-file volume at ~45 s,
		// inside the paper's 30–90 s envelope.
		a.sched.Advance(sim.Duration(snap.Len()) * sim.FromMicroseconds(1500))
		a.Stats.LastWalk = a.sched.Now().Sub(start)
		a.Stats.SnapshotsTaken++
		if a.connected && a.sink != nil {
			a.sink.Snapshot(snap)
		}
		if v.Trace != nil {
			v.Trace.Mark(tracefmt.EvSnapshotEnd)
		}
	}
}

// walkSpan opens the span of one volume walk (nil when the agent does not
// trace). Its ID derives from the machine, the volume and the walk's
// sequence number on this machine, so two runs of one seed record the
// same IDs.
func (a *Agent) walkSpan(vol string) *trace.Span {
	if a.Trace == nil {
		return nil
	}
	id := trace.MixID(trace.HashID("walk", a.m.Name, vol), a.Stats.SnapshotsTaken)
	sp := a.Trace.StartTrace("walk", a.m.Name, id, nil)
	sp.Annotate("volume", vol)
	return sp
}
