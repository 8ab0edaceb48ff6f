package replay

import (
	"fmt"
	"hash/fnv"

	"repro/internal/analysis"
	"repro/internal/collect"
	"repro/internal/ntos/filter"
	"repro/internal/ntos/iomgr"
	"repro/internal/ntos/irp"
	"repro/internal/ntos/machine"
	"repro/internal/ntos/types"
	"repro/internal/ntos/volume"
	"repro/internal/sim"
	"repro/internal/tracefmt"
)

// Mode selects the replay clock discipline.
type Mode uint8

const (
	// ModeFast issues every step back to back: the virtual clock advances
	// only by the modeled service times, collapsing recorded think time.
	ModeFast Mode = iota
	// ModeFaithful schedules every step at its recorded Start timestamp,
	// reproducing the original arrival process (and therefore hold times,
	// interarrival gaps and lazy-writer behavior).
	ModeFaithful
)

func (m Mode) String() string {
	if m == ModeFaithful {
		return "faithful"
	}
	return "fast"
}

// ParseMode parses "fast" or "faithful".
func ParseMode(s string) (Mode, error) {
	switch s {
	case "fast":
		return ModeFast, nil
	case "faithful":
		return ModeFaithful, nil
	}
	return 0, fmt.Errorf("replay: unknown mode %q (want fast or faithful)", s)
}

// Config parameterises a replay run.
type Config struct {
	Mode Mode
	// Seed feeds the replayed machines' RNGs (disk-model jitter etc.); a
	// fixed seed makes replay bit-deterministic.
	Seed uint64
	// BlockFastIO inserts the Opaque filter on every replayed volume —
	// the §10 what-if re-run against a recorded workload instead of a
	// synthetic one.
	BlockFastIO bool
	// CacheBytes overrides the replayed machines' file-cache size
	// (0 = stack default) — the cache-sizing what-if.
	CacheBytes int64
}

// MachineResult is one machine's replay outcome.
type MachineResult struct {
	Machine  string
	Category machine.Category
	Plan     *Plan
	Stats    iomgr.Stats
	// Issued counts steps actually driven into the stack; Diverged counts
	// those whose completion status differed from the recorded one; Dead
	// counts steps dropped because their session's open failed on replay.
	Issued, Diverged, Dead int
	// VirtualEnd is the machine's simulated clock when replay finished.
	VirtualEnd sim.Time
}

// Result is a full corpus replay: per-machine outcomes plus the freshly
// collected trace the replayed stack emitted.
type Result struct {
	Mode     Mode
	Machines []*MachineResult
	Store    *collect.Store
}

// Replay re-drives every machine of ds through a freshly built stack.
// Each machine gets its own scheduler and deterministic RNG, so machines
// replay independently and a fixed (corpus, Config) pair always produces
// the identical Result.
func Replay(ds *analysis.DataSet, cfg Config) (*Result, error) {
	res := &Result{Mode: cfg.Mode, Store: collect.NewStore()}
	for _, mt := range ds.Machines {
		mr, err := replayMachine(mt, cfg, res.Store)
		if err != nil {
			return nil, fmt.Errorf("replay: machine %s: %w", mt.Name, err)
		}
		res.Machines = append(res.Machines, mr)
	}
	if err := res.Store.Finalize(); err != nil {
		return nil, err
	}
	return res, nil
}

// DataSet decodes the replayed trace into an analysis corpus, carrying
// the original machines' categories and process dimensions over.
func (r *Result) DataSet(orig *analysis.DataSet) (*analysis.DataSet, error) {
	dims := map[string]*analysis.MachineTrace{}
	for _, mt := range orig.Machines {
		dims[mt.Name] = mt
	}
	out := &analysis.DataSet{}
	for _, name := range r.Store.Machines() {
		recs, err := r.Store.Records(name)
		if err != nil {
			return nil, err
		}
		var cat machine.Category
		var procs map[uint32]string
		if d := dims[name]; d != nil {
			cat, procs = d.Category, d.ProcNames
		}
		mt := analysis.NewMachineTrace(name, cat, recs)
		mt.ProcNames = procs
		out.Machines = append(out.Machines, mt)
	}
	if len(out.Machines) == 0 {
		return nil, fmt.Errorf("replay: replayed corpus is empty")
	}
	return out, nil
}

// machineSeed derives a per-machine RNG seed from the run seed, stable
// across runs and independent of machine order.
func machineSeed(seed uint64, name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return seed ^ h.Sum64()
}

func replayMachine(mt *analysis.MachineTrace, cfg Config, store *collect.Store) (*MachineResult, error) {
	plan := BuildPlan(mt)
	mr := &MachineResult{Machine: mt.Name, Category: mt.Category, Plan: plan}

	sched := sim.NewScheduler()
	rng := sim.NewRNG(machineSeed(cfg.Seed, mt.Name))
	m := machine.New(sched, rng.Fork(1), machine.Config{
		Name:       mt.Name,
		Category:   mt.Category,
		CacheBytes: cfg.CacheBytes,
		TraceFlush: func(recs []tracefmt.Record) {
			// Errors cannot occur before Finalize; mirror core's sink.
			_ = store.Append(mt.Name, recs)
		},
	})

	// Scientific machines ran SCSI disks in the study fleet (§2); every
	// remote mount is the 100 Mb redirector.
	localGeo := volume.IDE1998
	if mt.Category == machine.Scientific {
		localGeo = volume.SCSI1998
	}
	for _, spec := range plan.Mounts {
		if spec.Remote {
			m.AddVolume(spec.Prefix, volume.Redirector100Mb, volume.FlavorCIFS, true)
		} else {
			m.AddVolume(spec.Prefix, localGeo, volume.FlavorNTFS, false)
		}
	}
	if cfg.Mode == ModeFast {
		// Back-to-back issue barely advances the virtual clock, so the
		// 30 ms buffer shipments would never complete and the trace driver
		// would drop nearly everything as overflow. Shipping is collection
		// apparatus, not workload — deliver synchronously instead.
		for _, v := range m.Volumes {
			if v.Trace != nil {
				v.Trace.ShipLatency = 0
			}
		}
	}
	if cfg.BlockFastIO {
		for _, v := range m.Volumes {
			v.InsertFilter(func(next irp.Driver) irp.Driver {
				return filter.NewOpaque("OpaqueFilter", next)
			})
		}
	}

	// Pre-populate initial file-system state below the stack, before the
	// machine starts: everything the trace shows existing at first touch.
	for _, pre := range plan.Preload {
		mnt, rel := m.IO.MountFor(pre.Path)
		if mnt == nil {
			return nil, fmt.Errorf("preload %q: no mount", pre.Path)
		}
		if rel == "" || rel == `\` {
			continue // the mount root always exists
		}
		if pre.Dir {
			if _, st := mnt.FS.MkdirAll(rel, 0); st.IsError() {
				return nil, fmt.Errorf("preload dir %q: %v", pre.Path, st)
			}
			continue
		}
		if _, st := mnt.FS.CreateFile(rel, pre.Size, 0, 0); st.IsError() {
			return nil, fmt.Errorf("preload file %q: %v", pre.Path, st)
		}
	}

	m.Start()
	ex := &exec{m: m, mr: mr, sched: sched, handles: map[types.FileObjectID]iomgr.Handle{}}
	// The lazy writer reschedules itself forever, so the clock is always
	// advanced to a bounded deadline, never drained with Run().
	switch cfg.Mode {
	case ModeFaithful:
		for i := range plan.Steps {
			st := &plan.Steps[i]
			sched.At(st.Rec.Start, func(*sim.Scheduler) { ex.issue(st) })
		}
		sched.RunUntil(plan.LastStart.Add(sim.Minute))
	default:
		// Back-to-back issue advances the clock only through the stack's
		// inline service-time accounting (sim.Advance), which never fires
		// pending events. Deferred work — lazy-writer scans, cache
		// reference releases, the CLOSE half of the two-stage close —
		// would otherwise pile up unrun while replay state drifted ever
		// further from the recorded world (deletes deferred past
		// re-creates of the same path, etc.). Drain everything the clock
		// has passed after each step, and let the executor grant a grace
		// period when an open still diverges.
		ex.catchUp = fastCatchUp
		for i := range plan.Steps {
			ex.issue(&plan.Steps[i])
			sched.RunUntil(sched.Now())
		}
		sched.RunUntil(sched.Now().Add(sim.Minute))
	}
	m.Stop()
	// Let the trace driver's 30 ms shipment latency land the final buffers.
	sched.RunUntil(sched.Now().Add(sim.Minute))
	mr.Stats = m.IO.Stats
	mr.VirtualEnd = sched.Now()
	return mr, nil
}

// fastCatchUp is the grace period granted when a fast-mode open diverges:
// enough virtual time for several lazy-writer scans to flush dirty data
// and land the deferred closes (and deletions) the time compression
// postponed.
const fastCatchUp = 5 * sim.Second

// exec drives one machine's steps, mapping trace records back onto the
// iomgr system-call surface.
type exec struct {
	m       *machine.Machine
	mr      *MachineResult
	sched   *sim.Scheduler
	handles map[types.FileObjectID]iomgr.Handle
	// catchUp > 0 enables the fast-mode divergence-repair retry.
	catchUp sim.Duration
}

func (e *exec) issue(st *Step) {
	r := &st.Rec
	io := e.m.IO

	if r.Kind == tracefmt.EvCreate || r.Kind == tracefmt.EvCreateFailed {
		h, status := io.CreateFile(r.Proc, st.Path, st.Access, r.Disposition, r.Options, r.Attributes)
		if status != r.Status && e.catchUp > 0 {
			// Fast mode compresses think time, so work the original world
			// completed between these two opens (deferred closes, pending
			// deletions) may still be queued here. Give it a grace period
			// and retry once.
			if !status.IsError() {
				e.undoOpen(r, h)
			}
			e.sched.RunUntil(e.sched.Now().Add(e.catchUp))
			h, status = io.CreateFile(r.Proc, st.Path, st.Access, r.Disposition, r.Options, r.Attributes)
		}
		e.mr.Issued++
		if status != r.Status {
			e.mr.Diverged++
		}
		if !status.IsError() {
			if r.Kind == tracefmt.EvCreateFailed {
				// The original failed but the replayed one succeeded
				// (divergence already counted); don't leak the handle.
				e.undoOpen(r, h)
			} else {
				e.handles[r.FileID] = h
			}
		}
		return
	}

	h, ok := e.handles[r.FileID]
	if !ok {
		// The session's open failed on replay; its operations have nothing
		// to run against.
		e.mr.Dead++
		return
	}

	var status types.Status
	switch r.Kind {
	case tracefmt.EvRead, tracefmt.EvFastRead, tracefmt.EvFastMdlRead:
		_, status = io.ReadFile(r.Proc, h, r.Offset, int(r.Length))
	case tracefmt.EvWrite, tracefmt.EvFastWrite, tracefmt.EvFastMdlWrite:
		_, status = io.WriteFile(r.Proc, h, r.Offset, int(r.Length))
	case tracefmt.EvPagingRead:
		status = io.PagingRead(r.Proc, h, r.Offset, int(r.Length))
	case tracefmt.EvQueryInformation, tracefmt.EvFastQueryBasicInfo,
		tracefmt.EvFastQueryStandardInfo, tracefmt.EvFastQueryNetworkOpenInfo,
		tracefmt.EvQueryVolumeInformation:
		_, status = io.QueryInformation(r.Proc, h)
	case tracefmt.EvQueryDirectory, tracefmt.EvDirectoryControl,
		tracefmt.EvNotifyChangeDirectory:
		_, status = io.QueryDirectory(r.Proc, h)
	case tracefmt.EvSetEndOfFile:
		status = io.SetEndOfFile(r.Proc, h, r.FileSize)
	case tracefmt.EvSetDisposition:
		status = io.SetDeleteDisposition(r.Proc, h, true)
	case tracefmt.EvLock, tracefmt.EvFastLock:
		status = io.LockFile(r.Proc, h, r.Offset, int(r.Length))
	case tracefmt.EvUnlockSingle, tracefmt.EvFastUnlockSingle:
		status = io.UnlockFile(r.Proc, h, r.Offset, int(r.Length))
	case tracefmt.EvLockControl:
		if r.Minor == types.IrpMnUnlockSingle {
			status = io.UnlockFile(r.Proc, h, r.Offset, int(r.Length))
		} else {
			status = io.LockFile(r.Proc, h, r.Offset, int(r.Length))
		}
	case tracefmt.EvFlushBuffers:
		status = io.FlushFileBuffers(r.Proc, h)
	case tracefmt.EvFileSystemControl, tracefmt.EvDeviceControl,
		tracefmt.EvFastDeviceControl, tracefmt.EvUserFsRequest,
		tracefmt.EvMountVolume, tracefmt.EvVerifyVolume:
		status = io.FsControl(r.Proc, h, r.FsControl)
	case tracefmt.EvCleanup:
		status = io.CloseHandle(r.Proc, h)
		delete(e.handles, r.FileID)
	default:
		e.mr.Dead++
		return
	}
	e.mr.Issued++
	if status != r.Status {
		e.mr.Diverged++
	}
}

// undoOpen discards a replayed open that succeeded where the original saw
// the path absent. When the original world had no such file, converging
// means removing it again, not just closing the stray handle.
func (e *exec) undoOpen(r *tracefmt.Record, h iomgr.Handle) {
	if r.Kind == tracefmt.EvCreateFailed &&
		(r.Status == types.StatusObjectNameNotFound || r.Status == types.StatusObjectPathNotFound) {
		e.m.IO.SetDeleteDisposition(r.Proc, h, true)
	}
	e.m.IO.CloseHandle(r.Proc, h)
}
