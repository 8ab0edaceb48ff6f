// Package fleet is the sharded fleet-execution engine. The paper's study
// is 45 machines traced for 4 weeks (~190M records); running that fleet on
// one shared event scheduler uses a single core and must finish in one
// shot. Machines interact only through the collection sink, so each one
// can run on its own private scheduler ("shard") with a pre-forked RNG
// stream: the engine partitions the fleet across a worker pool, merges
// trace streams into the thread-safe collect.Store, checkpoints each
// completed shard so a long run can stop and resume, and exposes a live
// progress surface (events/sec, sim:real ratio, per-shard lag).
//
// The engine's core invariant: the shard decomposition is fixed per
// machine and never depends on the worker count, and every shard's RNG is
// split from the study seed in index order before any shard runs — so the
// same seed yields byte-identical per-machine stores at any worker count,
// and a resumed run converges to the same final store as an uninterrupted
// one.
package fleet

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"path/filepath"

	"repro/internal/collect"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/tracefmt"
)

// Spec identifies one shard of the fleet. Fingerprint is an opaque digest
// of everything that determines the shard's trace stream (seed, duration,
// fleet composition, machine knobs); checkpoints carry it so a resume
// never mixes streams from different configurations.
type Spec struct {
	Index       int
	Name        string
	Fingerprint string
}

// Hooks are the lifecycle callbacks of one shard's machine apparatus.
// They run on the shard's worker goroutine against its private scheduler.
// Once the shard is done or has failed, the engine drops its hooks and
// its scheduler (whose queue still holds the machine's pending events),
// so a finished machine is kept only by what its hooks handed over.
type Hooks struct {
	// Start begins the shard's run: it may build the machine first, then
	// begins tracing and workload (agent start, optional opening
	// snapshot, workload driver start).
	Start func()
	// Finish stops the workload, takes the closing snapshot and halts the
	// machine. The engine then drains the scheduler briefly so final
	// trace-buffer flushes land.
	Finish func()
	// Close releases the shard's collection transport after the drain —
	// the remote-collection path closes its network sink here, flushing
	// the spill ring and delivering the clean-close marker. An error
	// fails the shard. May be nil.
	Close func() error
	// ProcNames reports the machine's pid→image dimension for results and
	// checkpoints. May be nil.
	ProcNames func() map[uint32]string
}

// Config parameterises the engine.
type Config struct {
	// Duration is the traced period each shard runs.
	Duration sim.Duration
	// Workers is the number of shards executing concurrently (<=1 runs
	// sequentially; results are identical either way).
	Workers int
	// CheckpointDir, when set, persists each completed shard so a killed
	// run can resume. Checkpoints are written atomically per machine.
	CheckpointDir string
	// Slice is the progress/cancellation granularity of a shard's run
	// (default 15 simulated minutes). Slicing RunUntil is semantically
	// identical to one long run; it only bounds how stale the progress
	// surface can be and how long cancellation takes.
	Slice sim.Duration
	// Drain is the extra virtual time run after Finish so final flush
	// shipments land (default 1 simulated minute).
	Drain sim.Duration
	// Remote marks a fleet whose trace streams ship to a live collection
	// server instead of the engine's local store: shards credit progress
	// via CountRecords, the local store is neither finalized nor
	// checkpointed (the server owns the corpus), and Restore is refused.
	Remote bool
	// Obs, when set, exports the per-shard progress gauges as
	// shard-labeled series and the fleet aggregates as derived gauges
	// refreshed on every gather. The gauges exist either way — they ARE
	// the engine's progress bookkeeping (Status is a view over them).
	Obs *obs.Registry
	// Tracer, when set, records one span tree per shard — run, finish,
	// collect-ship, checkpoint — on the shard's own virtual timeline
	// (sched.Now reads only, so tracing never perturbs the simulation),
	// with wall-clock and straggler annotations added after the run.
	Tracer *trace.Tracer
}

// shard states.
const (
	statePending int32 = iota
	stateRunning
	stateDone
	stateRestored
	stateFailed
)

var stateNames = [...]string{"pending", "running", "done", "restored", "failed"}

type shard struct {
	spec  Spec
	sched *sim.Scheduler
	hooks Hooks

	state atomic.Int32
	// Progress lives in obs gauges — bare (unregistered) ones when the
	// engine runs without a registry, shard-labeled series otherwise.
	simNow  *obs.Gauge // virtual clock, ticks
	events  *obs.Gauge // scheduler events run
	records *obs.Gauge // trace records collected
	started *obs.Gauge // wall time, unix nanos (0 = not started)
	ended   *obs.Gauge

	appendMu  sync.Mutex
	appendErr error

	// Written by the owning worker (or Restore) and read after Run.
	snaps     []*snapshot.Snapshot
	procNames map[uint32]string

	// span is the shard's root trace span, kept so the engine can add
	// post-run annotations (wall time, straggler) to the sealed trace.
	span *trace.Span
}

// release drops the shard's apparatus once it is done or has failed:
// the hooks, whose closures hold the machine, and the scheduler, whose
// queued events (the lazy writer's next tick among them) reach it too.
func (sh *shard) release() {
	sh.hooks = Hooks{}
	sh.sched = nil
}

// Engine executes a fleet of shards over a worker pool.
type Engine struct {
	cfg   Config
	store *collect.Store

	// Fleet-level aggregates, recomputed by Status (and therefore by the
	// registry's gather hook before every export).
	aggEventsPerSec *obs.FloatGauge
	aggSimRatio     *obs.FloatGauge
	aggRunning      *obs.Gauge
	aggDone         *obs.Gauge
	aggFailed       *obs.Gauge
	aggMaxLag       *obs.Gauge

	mu     sync.Mutex
	shards []*shard
	byName map[string]*shard
	sorted bool
}

// New creates an engine merging into store.
func New(cfg Config, store *collect.Store) *Engine {
	if cfg.Slice <= 0 {
		cfg.Slice = 15 * sim.Minute
	}
	if cfg.Drain <= 0 {
		cfg.Drain = sim.Minute
	}
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	e := &Engine{cfg: cfg, store: store, byName: map[string]*shard{}}
	if r := cfg.Obs; r != nil {
		e.aggEventsPerSec = r.FloatGauge("fleet_events_per_sec",
			"aggregate scheduler events per wall second")
		e.aggSimRatio = r.FloatGauge("fleet_sim_ratio",
			"virtual seconds advanced per wall second, aggregated")
		e.aggRunning = r.Gauge("fleet_shards_running", "shards currently executing")
		e.aggDone = r.Gauge("fleet_shards_done", "shards completed or restored")
		e.aggFailed = r.Gauge("fleet_shards_failed", "shards that failed")
		e.aggMaxLag = r.Gauge("fleet_max_lag_ticks",
			"largest remaining virtual time over unfinished shards, ticks")
		// Exports always see fresh aggregates: sampling the shard gauges
		// is what recomputes them.
		r.OnGather(func() { e.Status() })
	}
	return e
}

// newShardGauges wires a shard's progress gauges: registered series when
// the engine has a registry, bare gauges otherwise. started/ended stay
// bare either way — wall-clock unix nanos are bookkeeping, not telemetry.
func (e *Engine) newShardGauges(sh *shard) {
	sh.started = obs.NewGauge()
	sh.ended = obs.NewGauge()
	r := e.cfg.Obs
	if r == nil {
		sh.simNow = obs.NewGauge()
		sh.events = obs.NewGauge()
		sh.records = obs.NewGauge()
		return
	}
	lb := obs.Label{Key: "shard", Value: sh.spec.Name}
	sh.simNow = r.Gauge("fleet_shard_sim_now_ticks",
		"shard virtual clock position, 100ns ticks", lb)
	sh.events = r.Gauge("fleet_shard_events",
		"scheduler events run by the shard", lb)
	sh.records = r.Gauge("fleet_shard_records",
		"trace records collected from the shard", lb)
}

// Store returns the engine's collection store.
func (e *Engine) Store() *collect.Store { return e.store }

// Add registers a live shard: its private scheduler and lifecycle hooks.
// Safe to call from parallel builders; shards are ordered by Spec.Index
// regardless of registration order.
func (e *Engine) Add(spec Spec, sched *sim.Scheduler, hooks Hooks) error {
	sh := &shard{spec: spec, sched: sched, hooks: hooks}
	e.newShardGauges(sh)
	return e.register(sh)
}

func (e *Engine) register(sh *shard) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.byName[sh.spec.Name]; dup {
		return fmt.Errorf("fleet: duplicate shard %q", sh.spec.Name)
	}
	e.shards = append(e.shards, sh)
	e.byName[sh.spec.Name] = sh
	e.sorted = false
	return nil
}

// Restore attempts to load a completed shard from the checkpoint
// directory. On success the stream is imported into the store and the
// shard is registered as already done; a missing, corrupt or
// fingerprint-mismatched checkpoint returns false and the caller builds
// and runs the shard normally — so a checkpoint killed mid-write simply
// re-runs its machine. A restored shard's process names, walks and
// record count are served by ProcNames, Snapshots and Status.
func (e *Engine) Restore(spec Spec) bool {
	if e.cfg.CheckpointDir == "" || e.cfg.Remote {
		return false
	}
	ck, err := loadCheckpoint(checkpointPath(e.cfg.CheckpointDir, spec.Name), spec.Fingerprint)
	if err != nil {
		return false
	}
	if err := e.store.ImportStream(spec.Name, ck.Stream, ck.Records); err != nil {
		return false
	}
	sh := &shard{spec: spec, snaps: ck.Snapshots, procNames: ck.ProcNames}
	e.newShardGauges(sh)
	sh.state.Store(stateRestored)
	sh.records.Set(int64(ck.Records))
	sh.simNow.Set(int64(e.cfg.Duration))
	return e.register(sh) == nil
}

// TraceBuffer implements agent.Sink: records merge into the shared store
// and count toward the shard's progress.
func (e *Engine) TraceBuffer(mch string, recs []tracefmt.Record) {
	err := e.store.Append(mch, recs)
	sh := e.lookup(mch)
	if sh == nil {
		return
	}
	if err != nil {
		sh.appendMu.Lock()
		if sh.appendErr == nil {
			sh.appendErr = err
		}
		sh.appendMu.Unlock()
		return
	}
	sh.records.Add(int64(len(recs)))
}

// writeObsSnapshot leaves the end-of-run telemetry artifact beside the
// checkpoints. Nil registry or no checkpoint dir: no-op.
func (e *Engine) writeObsSnapshot() {
	if e.cfg.Obs == nil || e.cfg.CheckpointDir == "" {
		return
	}
	// Best effort: a failed telemetry write must not fail the run.
	_ = e.cfg.Obs.WriteSnapshot(filepath.Join(e.cfg.CheckpointDir, "obs.json"))
}

// CountRecords credits n shipped records to a shard's progress counters —
// the remote-collection path, where buffers bypass the engine's store and
// land on a live collect.Server instead.
func (e *Engine) CountRecords(mch string, n int) {
	if sh := e.lookup(mch); sh != nil {
		sh.records.Add(int64(n))
	}
}

// Snapshot implements agent.Sink: daily walks collect per shard and merge
// in machine order after the run.
func (e *Engine) Snapshot(snap *snapshot.Snapshot) {
	if sh := e.lookup(snap.Machine); sh != nil {
		sh.snaps = append(sh.snaps, snap)
	}
}

func (e *Engine) lookup(name string) *shard {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.byName[name]
}

// ordered returns shards sorted by index.
func (e *Engine) ordered() []*shard {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.sorted {
		for i := 1; i < len(e.shards); i++ {
			for j := i; j > 0 && e.shards[j-1].spec.Index > e.shards[j].spec.Index; j-- {
				e.shards[j-1], e.shards[j] = e.shards[j], e.shards[j-1]
			}
		}
		e.sorted = true
	}
	out := make([]*shard, len(e.shards))
	copy(out, e.shards)
	return out
}

// Run executes every live shard on the worker pool, each worker claiming
// the next shard in index order. A claimed shard returns at once, left
// pending, when ctx is cancelled or a shard has already failed. Run
// returns the first shard error in queue order, or ctx.Err() if cancelled
// — in which case completed shards have already checkpointed (when a
// checkpoint dir is set) and a fresh engine with Restore picks up where
// this one stopped. A panic in a shard reaches the caller as par.For
// raises it: a *par.Panic when more than one worker runs.
func (e *Engine) Run(ctx context.Context) error {
	var queue []*shard
	for _, sh := range e.ordered() {
		if sh.state.Load() == statePending {
			queue = append(queue, sh)
		}
	}
	errs := make([]error, len(queue))
	var failed atomic.Bool
	par.For(e.cfg.Workers, len(queue), func(i int) {
		if ctx.Err() != nil || failed.Load() {
			return
		}
		if errs[i] = e.runShard(ctx, queue[i]); errs[i] != nil {
			failed.Store(true)
		}
	})
	e.annotateStragglers()
	// Interrupted and failed runs leave telemetry too — that is when it
	// is most wanted.
	e.writeObsSnapshot()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}

// annotateStragglers marks, on each completed shard's sealed trace, the
// shards whose wall time exceeded 1.5× the fleet mean — the outliers a
// scheduler investigation starts from. Post-finish annotation is cheap
// and the virtual timelines stay untouched.
func (e *Engine) annotateStragglers() {
	if e.cfg.Tracer == nil {
		return
	}
	type done struct {
		sh   *shard
		wall int64
	}
	var ds []done
	var total int64
	for _, sh := range e.ordered() {
		if sh.span == nil || sh.state.Load() != stateDone {
			continue
		}
		w := sh.ended.Value() - sh.started.Value()
		ds = append(ds, done{sh, w})
		total += w
	}
	if len(ds) == 0 {
		return
	}
	mean := total / int64(len(ds))
	for _, d := range ds {
		d.sh.span.AnnotateInt("wall_ms", d.wall/1e6)
		if d.wall > mean+mean/2 {
			d.sh.span.Annotate("straggler", "true")
		}
	}
}

// runShard drives one machine from virtual time zero to the configured
// duration in slices, then finalizes and checkpoints it.
func (e *Engine) runShard(ctx context.Context, sh *shard) error {
	sh.started.Set(time.Now().UnixNano())
	sh.state.Store(stateRunning)
	// The shard trace lives on the shard's own virtual timeline (clock
	// reads only — Scheduler.Now never advances anything) and its ID is
	// derived from the shard identity, so two runs of the same study
	// produce the same trace IDs and the same virtual span layout. The
	// sealed trace keeps its clock, so the clock reads the scheduler
	// through the shard, and the virtual end once it is released.
	root := e.cfg.Tracer.StartTrace("shard", sh.spec.Name,
		trace.HashID("shard", sh.spec.Name, sh.spec.Fingerprint),
		func() int64 {
			if sched := sh.sched; sched != nil {
				return int64(sched.Now()) * 100
			}
			return sh.simNow.Value() * 100
		})
	sh.span = root
	run := root.Child("run")
	if sh.hooks.Start != nil {
		sh.hooks.Start()
	}
	deadline := sim.Time(e.cfg.Duration)
	for t := sim.Time(0); t < deadline; {
		if err := ctx.Err(); err != nil {
			sh.state.Store(statePending) // not checkpointed; a resume re-runs it
			return err
		}
		t = t.Add(e.cfg.Slice)
		if t > deadline {
			t = deadline
		}
		sh.sched.RunUntil(t)
		sh.simNow.Set(int64(sh.sched.Now()))
		sh.events.Set(int64(sh.sched.Ran()))
	}
	run.AnnotateInt("events", sh.events.Value())
	run.Finish()
	finish := root.Child("finish")
	if sh.hooks.Finish != nil {
		sh.hooks.Finish()
	}
	sh.sched.RunUntil(deadline.Add(e.cfg.Drain))
	sh.simNow.Set(int64(deadline))
	sh.events.Set(int64(sh.sched.Ran()))
	finish.Finish()
	// From here the shard ends done or failed; either way its apparatus
	// goes when runShard returns.
	defer sh.release()

	seal := func(outcome string) {
		root.AnnotateInt("records", sh.records.Value())
		if outcome != "" {
			root.Annotate("outcome", outcome)
		}
		root.Finish()
	}
	ship := root.Child("collect-ship")
	if sh.hooks.Close != nil {
		if err := sh.hooks.Close(); err != nil {
			ship.Finish()
			seal("close-failed")
			sh.state.Store(stateFailed)
			return fmt.Errorf("fleet: shard %q: close: %w", sh.spec.Name, err)
		}
	}
	ship.Finish()
	sh.appendMu.Lock()
	appendErr := sh.appendErr
	sh.appendMu.Unlock()
	if appendErr != nil {
		seal("append-failed")
		sh.state.Store(stateFailed)
		return fmt.Errorf("fleet: shard %q: %w", sh.spec.Name, appendErr)
	}
	if sh.hooks.ProcNames != nil {
		sh.procNames = sh.hooks.ProcNames()
	}
	if !e.cfg.Remote {
		ckpt := root.Child("checkpoint")
		ckptStart := time.Now()
		if err := e.store.FinalizeMachine(sh.spec.Name); err != nil {
			ckpt.Finish()
			seal("finalize-failed")
			sh.state.Store(stateFailed)
			return fmt.Errorf("fleet: shard %q: %w", sh.spec.Name, err)
		}
		if e.cfg.CheckpointDir != "" {
			if err := e.writeCheckpoint(sh); err != nil {
				ckpt.Finish()
				seal("checkpoint-failed")
				sh.state.Store(stateFailed)
				return fmt.Errorf("fleet: checkpoint %q: %w", sh.spec.Name, err)
			}
		}
		// The checkpoint runs after the virtual clock stops, so its span
		// is zero-length on the shard timeline; the wall cost is what
		// matters and rides along as an annotation.
		ckpt.AnnotateInt("wall_us", time.Since(ckptStart).Microseconds())
		ckpt.Finish()
	}
	seal("")
	sh.ended.Set(time.Now().UnixNano())
	sh.state.Store(stateDone)
	return nil
}

// Snapshots merges every shard's snapshots in machine (index) order.
func (e *Engine) Snapshots() []*snapshot.Snapshot {
	var out []*snapshot.Snapshot
	for _, sh := range e.ordered() {
		out = append(out, sh.snaps...)
	}
	return out
}

// ProcNames returns the pid→image dimension recorded for a machine (from
// its run or its checkpoint), or nil.
func (e *Engine) ProcNames(name string) map[uint32]string {
	if sh := e.lookup(name); sh != nil {
		return sh.procNames
	}
	return nil
}
