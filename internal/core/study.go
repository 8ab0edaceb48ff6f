// Package core is the library façade: it assembles the study of §2–§3 —
// a fleet of simulated Windows NT 4.0 machines across the five usage
// categories, each with generated file-system content, a category-matched
// workload, a trace agent shipping filter-driver records to an in-process
// collection store, and daily snapshots — and hands the collected corpus
// to the analysis layer. Execution is delegated to the sharded fleet
// engine: each machine runs on its own scheduler shard with a pre-forked
// RNG stream, so the fleet can run across a worker pool (and stop/resume
// from checkpoints) while the same seed yields byte-identical per-machine
// trace stores at any worker count.
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/agent"
	"repro/internal/analysis"
	"repro/internal/collect"
	"repro/internal/colstore"
	"repro/internal/fleet"
	"repro/internal/fsgen"
	"repro/internal/ntos/filter"
	"repro/internal/ntos/irp"
	"repro/internal/ntos/machine"
	"repro/internal/ntos/volume"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/par"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/tracefmt"
	"repro/internal/workload"
)

// Config parameterises a study.
type Config struct {
	// Seed drives every random stream; equal seeds give identical studies.
	Seed uint64
	// Machines is the fleet size (default 45, the paper's instrumented
	// set). Categories are assigned in the paper's rough proportions.
	Machines int
	// Duration is the traced period (default 24 h; the paper ran 4 weeks).
	Duration sim.Duration
	// WithNetwork adds a per-user network share over the CIFS redirector
	// (default on via NewStudy).
	WithNetwork bool
	// SnapshotAtStart takes a day-0 snapshot before the workload begins.
	SnapshotAtStart bool
	// FastIOBlocked inserts an Opaque (FastIO-refusing) filter on every
	// volume — the §10 ablation.
	FastIOBlocked bool
	// CacheBytes overrides the per-machine file-cache size (0 = default).
	CacheBytes int64

	// Workers is how many machine shards run concurrently (0 or 1 =
	// sequential). Per-machine trace streams are byte-identical at any
	// worker count — the shard decomposition and RNG split never depend
	// on it.
	Workers int
	// CollectAddr, when set, ships every machine's trace stream over TCP
	// to a live collection server at this address (the §3 deployment
	// shape) instead of the in-process store; the server then owns the
	// corpus. Checkpoint/resume are unavailable in this mode. Delivery
	// accounting (shipped/lost records) is aggregated by NetStats.
	CollectAddr string
	// NetSink parameterises the per-machine network sinks used with
	// CollectAddr (spill-ring size, backoff, dial override for fault
	// injection). The zero value gets production defaults.
	NetSink agent.NetSinkConfig
	// CheckpointDir, when set, persists each completed machine so a
	// killed run can resume.
	CheckpointDir string
	// Resume loads matching checkpoints from CheckpointDir instead of
	// re-running those machines.
	Resume bool
	// Columnar is read by nothing: Save always writes colstore segments.
	//
	// Deprecated: the saved layout is no longer selectable; the field
	// stays only until the benchmark harness stops setting it.
	Columnar bool

	// Obs, when set, instruments the whole stack — NT layers, trace
	// drivers, network sinks, fleet shards, analysis workers — on this
	// registry. Instrumentation is purely observational: the collected
	// corpus is byte-identical with Obs set or nil.
	Obs *obs.Registry
	// Trace, when set, records span trees for the fleet shards (virtual
	// timelines), the per-machine decode passes and the compute kernels
	// (wall timelines). Like Obs, it is purely observational: tracing on
	// or off leaves reports and stream SHAs byte-identical, and trace
	// IDs derive from shard/machine identity, so two traced runs of the
	// same seed record the same IDs.
	Trace *trace.Tracer
}

// categoryMix is the §2 fleet composition, proportions of 45.
var categoryMix = []struct {
	cat   machine.Category
	count int
}{
	{machine.WalkUp, 12},
	{machine.Pool, 10},
	{machine.Personal, 13},
	{machine.Administrative, 6},
	{machine.Scientific, 4},
}

// Node is one machine with its apparatus. A machine restored from a
// checkpoint has no live apparatus: M (and the other pointers) are nil
// and only its collected streams/snapshots exist.
type Node struct {
	M       *machine.Machine
	Sched   *sim.Scheduler
	Agent   *agent.Agent
	Driver  *workload.Driver
	Layout  *fsgen.Layout
	Share   *fsgen.Layout
	ShareFS *machine.Vol
	// Net is the machine's network sink when the study ships to a live
	// collection server (Config.CollectAddr); nil otherwise.
	Net *agent.NetSink
	// Restored marks a node loaded from a fleet checkpoint.
	Restored bool
}

// spec is one planned machine of the fleet.
type spec struct {
	name string
	cat  machine.Category
}

// Study is one complete simulated trace collection.
type Study struct {
	Cfg   Config
	Nodes []*Node

	// Engine is the sharded fleet-execution engine driving the run; its
	// Status method is the live progress surface.
	Engine *fleet.Engine
	// Store is the in-process collection server state.
	Store *collect.Store
	// Snapshots collects the agents' daily walks (merged in machine
	// order after Run).
	Snapshots []*snapshot.Snapshot

	specs    []spec
	restored []*fleet.Restored
	ran      bool

	// mObs is the shared per-layer instrumentation bundle (nil when
	// Cfg.Obs is nil); decodeHist/computeHist time the analysis workers;
	// colMetrics instruments the columnar store.
	mObs        *machine.Obs
	decodeHist  *obs.Histogram
	computeHist *obs.Histogram
	kernelObs   *report.KernelTimers
	colMetrics  *colstore.Metrics
}

// fleetSpecs lays out the machine fleet: the paper's 45-machine category
// mix scaled to the requested size.
func fleetSpecs(machines int) []spec {
	total := 0
	for _, mix := range categoryMix {
		total += mix.count
	}
	var specs []spec
	for _, mix := range categoryMix {
		// Scale the paper's 45-machine mix to the requested fleet size.
		n := (mix.count*machines + total/2) / total
		if n == 0 && machines >= len(categoryMix) {
			n = 1
		}
		for i := 0; i < n && len(specs) < machines; i++ {
			specs = append(specs, spec{fmt.Sprintf("%s-%02d", mix.cat, i+1), mix.cat})
		}
	}
	// Top up with personal machines if rounding fell short.
	for len(specs) < machines {
		specs = append(specs, spec{fmt.Sprintf("personal-x%02d", len(specs)), machine.Personal})
	}
	return specs
}

// userAbbrev maps each category name-prefix to a distinct two-letter
// code. User names must stay as short as the study's real logins: they
// appear in profile and share paths, and the trace format stores names in
// a 64-byte short form (tracefmt.NameLen) — a long user name would push
// deep paths (web cache, profiles) past the cap and make distinct files
// collide onto one truncated name.
var userAbbrev = map[string]string{
	"walk-up":        "wu",
	"pool":           "po",
	"personal":       "pe",
	"administrative": "ad",
	"scientific":     "sc",
}

// userName derives the profile owner from the full machine name, so every
// machine gets a distinct user. (Slicing the trailing digits collided:
// top-up "personal-x01" and regular "personal-01" — and every category's
// "-01" machine — all mapped to "user01".) The category prefix is
// abbreviated, keeping the name within the era's login-length norms and
// the trace format's short-form path budget; the per-category ordinal is
// preserved verbatim, so distinct machines always get distinct users.
func userName(machineName string) string {
	if i := strings.LastIndexByte(machineName, '-'); i > 0 {
		if code, ok := userAbbrev[machineName[:i]]; ok {
			return "u" + code + machineName[i+1:]
		}
	}
	return "u-" + machineName
}

// fingerprint digests everything that determines one machine's trace
// stream, guarding checkpoints against configuration drift.
func (cfg Config) fingerprint(sp spec) string {
	return fmt.Sprintf("v1 seed=%d dur=%d machines=%d net=%t snap0=%t fastio=%t cache=%d name=%s cat=%d",
		cfg.Seed, cfg.Duration, cfg.Machines, cfg.WithNetwork, cfg.SnapshotAtStart,
		cfg.FastIOBlocked, cfg.CacheBytes, sp.name, sp.cat)
}

// NewStudy builds the fleet. Call Run, then DataSet or Results.
//
// Construction is deterministic and parallel: per-machine RNG streams are
// split from the seed in index order first, then machines are built
// concurrently (they share no mutable state until their agents reach the
// thread-safe collection store).
func NewStudy(cfg Config) *Study {
	if cfg.Machines <= 0 {
		cfg.Machines = 45
	}
	if cfg.Duration <= 0 {
		cfg.Duration = sim.Day
	}
	s := &Study{
		Cfg:   cfg,
		Store: collect.NewStore(),
	}
	s.mObs = machine.NewObs(cfg.Obs)
	s.colMetrics = colstore.NewMetrics(cfg.Obs)
	if cfg.Obs != nil {
		s.decodeHist = cfg.Obs.Histogram("analysis_decode_machine_us",
			"Wall-clock microseconds to decode one machine's trace stream.")
		s.computeHist = cfg.Obs.Histogram("report_compute_machine_us",
			"Wall-clock microseconds to derive one machine's measures.")
		s.kernelObs = report.NewKernelTimers(cfg.Obs)
		cfg.Obs.Gauge("study_machines", "Planned fleet size of the study.").Set(int64(cfg.Machines))
		cfg.Obs.Gauge("study_duration_ticks", "Configured traced period in 100ns ticks.").Set(int64(cfg.Duration))
	}
	s.Engine = fleet.New(fleet.Config{
		Duration:      cfg.Duration,
		Workers:       cfg.Workers,
		CheckpointDir: cfg.CheckpointDir,
		Remote:        cfg.CollectAddr != "",
		Obs:           cfg.Obs,
		Tracer:        cfg.Trace,
	}, s.Store)

	s.specs = fleetSpecs(cfg.Machines)
	rngs := sim.NewRNG(cfg.Seed).Split(len(s.specs))
	s.Nodes = make([]*Node, len(s.specs))
	s.restored = make([]*fleet.Restored, len(s.specs))

	// Resume pass: machines with a valid checkpoint need no apparatus.
	var build []int
	for i := range s.specs {
		if cfg.Resume && cfg.CheckpointDir != "" {
			if res, ok := s.Engine.Restore(s.fleetSpec(i)); ok {
				s.restored[i] = res
				s.Nodes[i] = &Node{Restored: true}
				continue
			}
		}
		build = append(build, i)
	}

	// Build pass, parallel across the worker budget.
	par.For(cfg.Workers, len(build), func(j int) {
		i := build[j]
		s.buildNode(i, rngs[i])
	})
	return s
}

func (s *Study) fleetSpec(i int) fleet.Spec {
	return fleet.Spec{
		Index:       i,
		Name:        s.specs[i].name,
		Fingerprint: s.Cfg.fingerprint(s.specs[i]),
	}
}

// buildNode assembles machine i's full apparatus on its own scheduler
// shard and registers it with the fleet engine.
func (s *Study) buildNode(idx int, rng *sim.RNG) {
	sp := s.specs[idx]
	sched := sim.NewScheduler()
	node := &Node{Sched: sched}
	m := machine.New(sched, rng.Fork(1), machine.Config{
		Name:       sp.name,
		Category:   sp.cat,
		CacheBytes: s.Cfg.CacheBytes,
		TraceFlush: func(recs []tracefmt.Record) {
			if node.Agent != nil {
				node.Agent.Flush(recs)
			}
		},
		Obs: s.mObs,
	})
	node.M = m

	// Local volume: scientific machines get SCSI, the rest IDE (§2);
	// roughly a fifth of local volumes were FAT-formatted in the era.
	geo := volume.IDE1998
	if sp.cat == machine.Scientific {
		geo = volume.SCSI1998
	}
	flavor := volume.FlavorNTFS
	if rng.Bool(0.2) {
		flavor = volume.FlavorFAT
	}
	m.AddVolume(`C:`, geo, flavor, false)

	user := userName(sp.name)
	node.Layout = fsgen.PopulateLocal(m.SystemVolume().FS, rng.Fork(2), fsgen.Config{
		User: user, Category: sp.cat, Now: 0,
	})

	if s.Cfg.WithNetwork {
		prefix := `\\fs\` + user
		node.ShareFS = m.AddVolume(prefix, volume.Redirector100Mb, volume.FlavorCIFS, true)
		node.Share = fsgen.PopulateShare(node.ShareFS.FS, rng.Fork(3), fsgen.ShareConfig{
			User: user, Now: 0, Scale: -1,
		})
	}

	if s.Cfg.FastIOBlocked {
		for _, v := range m.Volumes {
			blockFastIO(v)
		}
	}

	m.Start()
	var sink agent.Sink = s.Engine
	if s.Cfg.CollectAddr != "" {
		nsCfg := s.Cfg.NetSink
		nsCfg.Eager = false // build must not fail on a refusal window; the sink spills until the server appears
		nsCfg.Obs = s.Cfg.Obs
		node.Net, _ = agent.NewNetSinkConfig(s.Cfg.CollectAddr, sp.name, nsCfg)
		sink = &netNodeSink{engine: s.Engine, net: node.Net}
	}
	node.Agent = agent.New(m, sink)
	node.Driver = workload.Install(m, node.Layout, rng.Fork(4))
	if node.Share != nil {
		p := workload.NewProc(m, "shareuser", `\\fs\`+user, rng.Fork(5))
		node.Driver.AddApp(workload.NewShareUser(p, node.Share))
	}
	s.Nodes[idx] = node

	// Names are unique by construction, so Add cannot fail here.
	_ = s.Engine.Add(s.fleetSpec(idx), sched, fleet.Hooks{
		Start: func() {
			node.Agent.Start()
			if s.Cfg.SnapshotAtStart {
				node.Agent.TakeSnapshots()
			}
			node.Driver.Start()
		},
		Finish: func() {
			node.Driver.Stop()
			node.Agent.TakeSnapshots() // closing snapshot
			node.Agent.Stop()
			node.M.Stop()
		},
		Close: func() error {
			if node.Net == nil {
				return nil
			}
			return node.Net.Close()
		},
		ProcNames: func() map[uint32]string { return node.M.ProcNames },
	})
}

// netNodeSink routes one machine's trace buffers to the live collection
// server while crediting the fleet engine's progress counters; snapshots
// stay with the engine — they were shipped out of band in the study (§3).
type netNodeSink struct {
	engine *fleet.Engine
	net    *agent.NetSink
}

func (ns *netNodeSink) TraceBuffer(mch string, recs []tracefmt.Record) {
	ns.net.TraceBuffer(mch, recs)
	ns.engine.CountRecords(mch, len(recs))
}

func (ns *netNodeSink) Snapshot(snap *snapshot.Snapshot) { ns.engine.Snapshot(snap) }

// NetStats aggregates delivery accounting across the fleet's network
// sinks (CollectAddr mode): every record is either confirmed stored by
// the server or counted lost — never silently dropped.
func (s *Study) NetStats() agent.NetStats {
	var total agent.NetStats
	for _, n := range s.Nodes {
		if n != nil && n.Net != nil {
			total.Add(n.Net.Stats())
		}
	}
	return total
}

// Run executes the study to its configured duration and finalizes the
// collection store. It is idempotent.
func (s *Study) Run() error { return s.RunContext(context.Background()) }

// RunContext is Run with cancellation: when ctx is cancelled the fleet
// stops at the next shard slice boundary, completed machines keep their
// checkpoints (when CheckpointDir is set), and a new Study with Resume
// continues from there.
func (s *Study) RunContext(ctx context.Context) error {
	if s.ran {
		return nil
	}
	s.ran = true
	if err := s.Engine.Run(ctx); err != nil {
		return err
	}
	if err := s.Store.Finalize(); err != nil {
		return err
	}
	s.Snapshots = s.Engine.Snapshots()
	return nil
}

// procNames returns machine i's pid→image dimension, live or restored.
func (s *Study) procNames(i int) map[uint32]string {
	if n := s.Nodes[i]; n != nil && n.M != nil {
		return n.M.ProcNames
	}
	if r := s.restored[i]; r != nil {
		return r.ProcNames
	}
	return nil
}

// DataSet decodes the collected store into the analysis corpus on
// Cfg.Workers-wide parallelism. A machine that produced no records is
// skipped; any other store failure (decode errors, unfinalized streams)
// propagates.
func (s *Study) DataSet() (*analysis.DataSet, error) {
	return s.DataSetWorkers(s.Cfg.Workers)
}

// DataSetWorkers is DataSet with an explicit decode worker count (0 or 1
// = sequential, matching the fleet engine's convention). Results are
// independent of the worker count: machines land in spec order and the
// first error in spec order wins.
func (s *Study) DataSetWorkers(workers int) (*analysis.DataSet, error) {
	type slot struct {
		mt  *analysis.MachineTrace
		err error
	}
	slots := make([]slot, len(s.specs))
	decode := func(i int) {
		start := time.Now()
		defer func() { s.decodeHist.ObserveWall(time.Since(start)) }()
		sp := s.specs[i]
		dsp := s.Cfg.Trace.StartTrace("decode", sp.name,
			trace.HashID("decode", sp.name), nil)
		defer dsp.Finish()
		recs, err := s.Store.Records(sp.name)
		if errors.Is(err, collect.ErrNoRecords) {
			// A machine may legitimately have produced no records.
			return
		}
		if err != nil {
			slots[i].err = fmt.Errorf("core: %s: %w", sp.name, err)
			return
		}
		dsp.AnnotateInt("records", int64(len(recs)))
		// Records hands over a freshly decoded slice; the trace
		// transposes it into its column table, and the slice is dropped.
		mt := analysis.NewMachineTrace(sp.name, sp.cat, recs)
		mt.ProcNames = s.procNames(i)
		slots[i].mt = mt
	}
	par.For(workers, len(s.specs), decode)
	ds := &analysis.DataSet{}
	for i := range slots {
		if slots[i].err != nil {
			return nil, slots[i].err
		}
		if slots[i].mt != nil {
			ds.Machines = append(ds.Machines, slots[i].mt)
		}
	}
	if len(ds.Machines) == 0 {
		return nil, fmt.Errorf("core: study produced no trace data")
	}
	return ds, nil
}

// Results runs the full analysis over the collected corpus.
func (s *Study) Results() (*report.Results, error) {
	ds, err := s.DataSet()
	if err != nil {
		return nil, err
	}
	return report.ComputeWorkersTrace(ds, runtime.GOMAXPROCS(0), s.computeHist, s.kernelObs, s.Cfg.Trace), nil
}

// TotalEvents reports collected record counts across machines.
func (s *Study) TotalEvents() int { return s.Store.TotalRecords() }

// blockFastIO inserts the §10 Opaque filter on a volume — a filter driver
// that implements no FastIO entry points, forcing every direct-path
// attempt back onto the IRP path.
func blockFastIO(v *machine.Vol) {
	v.InsertFilter(func(next irp.Driver) irp.Driver {
		return filter.NewOpaque("OpaqueFilter", next)
	})
}
