// Package machine assembles one simulated Windows NT 4.0 system: the
// scheduler-backed virtual clock, volumes (file system state + disk model
// + file system driver + trace filter driver), the I/O manager, the cache
// manager with its lazy writer, and the VM manager. It corresponds to one
// of the 45 instrumented machines of §2.
package machine

import (
	"fmt"

	"repro/internal/ntos/cachemgr"
	"repro/internal/ntos/fsdrv"
	"repro/internal/ntos/fsys"
	"repro/internal/ntos/iomgr"
	"repro/internal/ntos/irp"
	"repro/internal/ntos/vmmgr"
	"repro/internal/ntos/volume"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/tracedrv"
	"repro/internal/tracefmt"
)

// Category is the §2 usage category of a machine.
type Category uint8

// The five §2 usage categories.
const (
	WalkUp Category = iota
	Pool
	Personal
	Administrative
	Scientific
)

var categoryNames = [...]string{"walk-up", "pool", "personal", "administrative", "scientific"}

func (c Category) String() string {
	if int(c) < len(categoryNames) {
		return categoryNames[c]
	}
	return fmt.Sprintf("category(%d)", uint8(c))
}

// Obs bundles the per-layer instrumentation shared by all machines of a
// study: counters are fleet-wide aggregates (per-machine series would
// multiply cardinality by 45 for no analytical gain — the paper reports
// aggregate distributions too). A nil *Obs disables instrumentation.
type Obs struct {
	IO    *iomgr.Metrics
	Cache *cachemgr.Metrics
	Trace *tracedrv.Metrics
}

// NewObs builds the shared instrumentation bundle on r; nil r yields nil.
func NewObs(r *obs.Registry) *Obs {
	if r == nil {
		return nil
	}
	return &Obs{
		IO:    iomgr.NewMetrics(r),
		Cache: cachemgr.NewMetrics(r),
		Trace: tracedrv.NewMetrics(r),
	}
}

// Vol is one mounted volume and its driver stack.
type Vol struct {
	Mount *iomgr.Mount
	FS    *fsys.FS
	Dev   *volume.Device
	FSD   *fsdrv.Driver
	Trace *tracedrv.Driver
}

// Machine is one simulated system.
type Machine struct {
	Name     string
	Category Category
	Sched    *sim.Scheduler
	RNG      *sim.RNG
	IO       *iomgr.IOManager
	Cache    *cachemgr.Manager
	VM       *vmmgr.Manager
	Volumes  []*Vol

	// NextPID hands out process ids for this machine's workload.
	NextPID uint32

	// ProcNames is the process dimension: pid → image name, filled by the
	// workload as processes spawn (the trace records carry only pids, as
	// in the paper).
	ProcNames map[uint32]string

	traceFlush tracedrv.FlushFunc
	obs        *Obs
}

// Config parameterises a machine.
type Config struct {
	Name     string
	Category Category
	// CacheBytes sizes the file cache (0 = 16 MB default).
	CacheBytes int64
	// VMBudgetBytes bounds retained image bytes (0 = 24 MB default).
	VMBudgetBytes int64
	// TraceFlush receives full trace buffers from every volume's trace
	// driver (nil runs untraced).
	TraceFlush tracedrv.FlushFunc
	// Obs is the shared instrumentation bundle (nil when disabled).
	Obs *Obs
}

// New builds a machine with no volumes; add them with AddVolume, then
// call Start.
func New(sched *sim.Scheduler, rng *sim.RNG, cfg Config) *Machine {
	m := &Machine{
		Name:      cfg.Name,
		Category:  cfg.Category,
		Sched:     sched,
		RNG:       rng,
		NextPID:   100,
		ProcNames: map[uint32]string{},
	}
	m.IO = iomgr.New(sched)
	m.Cache = cachemgr.New(sched, cachemgr.Config{CapacityBytes: cfg.CacheBytes})
	m.VM = vmmgr.New(sched, m.IO, cfg.VMBudgetBytes)
	m.traceFlush = cfg.TraceFlush
	m.obs = cfg.Obs
	if m.obs != nil {
		m.IO.Metrics = m.obs.IO
		m.Cache.Metrics = m.obs.Cache
	}
	return m
}

// AddVolume mounts a new volume at prefix (e.g. `C:`) with the given disk
// geometry and FS flavor. remote marks redirector volumes. Returns the
// assembled volume.
func (m *Machine) AddVolume(prefix string, geo volume.Geometry, flavor volume.Flavor, remote bool) *Vol {
	dev := volume.New(prefix, geo, flavor, m.RNG.Fork(uint64(len(m.Volumes))+0x10))
	fs := fsys.New(flavor, geo.CapacityBytes)
	fsd := fsdrv.New(fmt.Sprintf("%s(%s)", flavor, prefix), fs, dev, m.Cache,
		m.Sched, m.RNG.Fork(uint64(len(m.Volumes))+0x20))
	var top irp.Driver = fsd
	var td *tracedrv.Driver
	if m.traceFlush != nil {
		td = tracedrv.New("FsTrace("+prefix+")", fsd, m.Sched, m.traceFlush)
		td.Remote = remote
		if m.obs != nil {
			td.Metrics = m.obs.Trace
		}
		top = td
	}
	mt := &iomgr.Mount{Prefix: prefix, Top: top, FS: fs, Remote: remote}
	m.IO.AddMount(mt)
	v := &Vol{Mount: mt, FS: fs, Dev: dev, FSD: fsd, Trace: td}
	m.Volumes = append(m.Volumes, v)
	return v
}

// InsertFilter places an additional filter driver between the trace
// driver (or the mount top) and the file system driver, preserving the
// trace driver's top-of-stack position as in real NT layering.
func (v *Vol) InsertFilter(build func(next irp.Driver) irp.Driver) {
	f := build(v.FSD)
	if v.Trace != nil {
		v.Trace.Rewire(f)
	} else {
		v.Mount.Top = f
	}
}

// Start wires the cache manager's paging target and starts the lazy
// writer. Call after all volumes are added.
func (m *Machine) Start() {
	m.IO.ResolveCacheTarget(m.Cache)
	m.Cache.StartLazyWriter()
	for _, v := range m.Volumes {
		if v.Trace != nil {
			v.Trace.Mark(tracefmt.EvAgentStart)
		}
	}
}

// Stop halts the lazy writer, flushes trace buffers and releases them.
func (m *Machine) Stop() {
	m.Cache.StopLazyWriter()
	for _, v := range m.Volumes {
		if v.Trace != nil {
			v.Trace.Mark(tracefmt.EvAgentStop)
			v.Trace.Flush()
			v.Trace.Release()
		}
	}
}

// SpawnPID allocates a process id.
func (m *Machine) SpawnPID() uint32 {
	pid := m.NextPID
	m.NextPID++
	return pid
}

// RegisterProc records a process name for the analysis dimension.
func (m *Machine) RegisterProc(pid uint32, name string) {
	m.ProcNames[pid] = name
}

// SystemVolume returns the first local volume (the C: drive).
func (m *Machine) SystemVolume() *Vol {
	for _, v := range m.Volumes {
		if !v.Mount.Remote {
			return v
		}
	}
	if len(m.Volumes) > 0 {
		return m.Volumes[0]
	}
	return nil
}

func (m *Machine) String() string {
	return fmt.Sprintf("Machine(%s, %s, %d volumes)", m.Name, m.Category, len(m.Volumes))
}
