// Package workload models the processes that drove the traced machines.
// §7 of the paper found that more than 92% of file accesses come from
// processes that take no direct user input, and that even the interactive
// ones (explorer) are driven by file-system structure rather than user
// choices — so the workload is modelled as a population of application
// behaviours with heavy-tailed ON/OFF activity, not as scripted users.
//
// Each application model reproduces a behaviour the paper singles out:
// notepad's 26-call save sequence (§1), explorer's control-operation storm
// (§8.3), web-cache churn (§5), winlogon profile synchronisation (§5),
// developer builds with 5–8 MB precompiled-header files (the Table 2 peak
// load), mailbox polling and the 4 MB-single-buffer mailer (§10), the
// 2–4-byte-read Java tools (§10), FrontPage's millisecond sessions and
// loadwc's days-long opens (§8.1), database engines with caching disabled
// (§9), and the scientific memory-mapped readers (§6.1).
package workload

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/fsgen"
	"repro/internal/ntos/iomgr"
	"repro/internal/ntos/machine"
	"repro/internal/ntos/types"
	"repro/internal/sim"
)

// Proc is one simulated process: a PID plus convenience wrappers over the
// machine's I/O manager that model per-call application think time.
type Proc struct {
	M     *machine.Machine
	PID   uint32
	Name  string
	Drive string
	rng   *sim.RNG

	// readGap/writeGap are the §8.2-calibrated intra-batch delays: 80% of
	// follow-up reads within 90 µs, 80% of writes within 30 µs.
	readGap  dist.Sampler
	writeGap dist.Sampler
}

// NewProc creates a process on m.
func NewProc(m *machine.Machine, name, drive string, rng *sim.RNG) *Proc {
	p := &Proc{
		M: m, PID: m.SpawnPID(), Name: name, Drive: drive, rng: rng,
		readGap:  dist.NewBoundedPareto(20, 100_000, 1.3), // µs
		writeGap: dist.NewBoundedPareto(8, 100_000, 1.3),  // µs
	}
	m.RegisterProc(p.PID, name)
	return p
}

// think advances the clock by a sampled µs delay.
func (p *Proc) think(s dist.Sampler) {
	p.M.Sched.Advance(sim.FromMicroseconds(s.Sample(p.rng)))
}

// path prefixes a volume-relative layout path with the drive.
func (p *Proc) path(rel string) string { return p.Drive + rel }

// Open wraps CreateFile.
func (p *Proc) Open(rel string, access types.AccessMask, disp types.CreateDisposition,
	opts types.CreateOptions, attrs types.FileAttributes) (iomgr.Handle, types.Status) {
	return p.M.IO.CreateFile(p.PID, p.path(rel), access, disp, opts, attrs)
}

// Close wraps CloseHandle.
func (p *Proc) Close(h iomgr.Handle) { p.M.IO.CloseHandle(p.PID, h) }

// Read performs one read at the current offset.
func (p *Proc) Read(h iomgr.Handle, n int) (int64, types.Status) {
	return p.M.IO.ReadFile(p.PID, h, -1, n)
}

// ReadAt reads at an explicit offset.
func (p *Proc) ReadAt(h iomgr.Handle, off int64, n int) (int64, types.Status) {
	return p.M.IO.ReadFile(p.PID, h, off, n)
}

// Write writes at the current offset.
func (p *Proc) Write(h iomgr.Handle, n int) (int64, types.Status) {
	return p.M.IO.WriteFile(p.PID, h, -1, n)
}

// WriteAt writes at an explicit offset.
func (p *Proc) WriteAt(h iomgr.Handle, off int64, n int) (int64, types.Status) {
	return p.M.IO.WriteFile(p.PID, h, off, n)
}

// ReadWhole reads a file sequentially to EOF in bufSize chunks with
// calibrated inter-read gaps.
func (p *Proc) ReadWhole(h iomgr.Handle, bufSize int) int64 {
	var total int64
	for {
		n, st := p.Read(h, bufSize)
		total += n
		if st.IsError() || n < int64(bufSize) {
			return total
		}
		p.think(p.readGap)
	}
}

// WriteStream writes total bytes sequentially in bufSize chunks.
func (p *Proc) WriteStream(h iomgr.Handle, total int64, bufSize int) {
	for written := int64(0); written < total; {
		n := int64(bufSize)
		if written+n > total {
			n = total - written
		}
		if _, st := p.Write(h, int(n)); st.IsError() {
			return
		}
		written += n
		p.think(p.writeGap)
	}
}

// WriteChunked writes total bytes sequentially in buffers drawn from the
// §8.2 write-size mix — the diverse sub-1024-byte requests that reflect
// "the writing of single data-structures". Small files thus take several
// write requests, most of which ride the FastIO path once caching is up.
func (p *Proc) WriteChunked(h iomgr.Handle, total int64, sizes dist.Sampler) {
	for written := int64(0); written < total; {
		n := int64(sizes.Sample(p.rng))
		if n < 16 {
			n = 16
		}
		if written+n > total {
			n = total - written
		}
		if _, st := p.Write(h, int(n)); st.IsError() {
			return
		}
		written += n
		p.think(p.writeGap)
	}
}

// DeleteFile models the Win32 DeleteFile call: open with DELETE access,
// set the disposition, close (§6.3's "explicit delete" method).
func (p *Proc) DeleteFile(rel string) types.Status {
	h, st := p.Open(rel, types.AccessDelete, types.DispositionOpen, 0, 0)
	if st.IsError() {
		return st
	}
	p.M.IO.SetDeleteDisposition(p.PID, h, true)
	p.Close(h)
	return types.StatusSuccess
}

// ProbeExists models the open-as-existence-test pattern of §8.4 ("a
// certain category of applications uses the open request as a test for
// the existence of the file").
func (p *Proc) ProbeExists(rel string) bool {
	h, st := p.Open(rel, types.AccessRead, types.DispositionOpen, 0, 0)
	if st.IsError() {
		return false
	}
	p.Close(h)
	return true
}

// StatFile models GetFileAttributes: open-for-attributes, query, close.
func (p *Proc) StatFile(rel string) (int64, types.Status) {
	h, st := p.Open(rel, types.AccessAttributes, types.DispositionOpen, 0, 0)
	if st.IsError() {
		return 0, st
	}
	size, qst := p.M.IO.QueryInformation(p.PID, h)
	p.Close(h)
	return size, qst
}

// App is one application behaviour: Burst performs one activity burst
// inline (virtual time advances through the I/O costs) and returns the
// delay until its next burst.
type App interface {
	// AppName identifies the model.
	AppName() string
	// Burst runs one activity burst and returns the gap to the next.
	Burst() sim.Duration
}

// Driver schedules a set of Apps over logon sessions on one machine.
type Driver struct {
	M    *machine.Machine
	Lay  *fsgen.Layout
	Apps []App

	rng    *sim.RNG
	active bool
	ended  bool

	// Winlogon syncs the profile at session boundaries.
	logon *Winlogon

	// SessionLength and IdleLength shape the logon/logoff cycle.
	SessionLength dist.Sampler // hours
	IdleLength    dist.Sampler // hours

	Stats DriverStats
}

// DriverStats counts driver-level activity.
type DriverStats struct {
	Sessions uint64
	Bursts   uint64
}

// NewDriver builds a driver; apps are installed by category via Install.
func NewDriver(m *machine.Machine, lay *fsgen.Layout, rng *sim.RNG) *Driver {
	return &Driver{
		M: m, Lay: lay, rng: rng,
		SessionLength: dist.NewBoundedPareto(0.5, 72, 1.4), // hours; heavy tail into days
		IdleLength:    dist.NewBoundedPareto(0.2, 60, 1.2),
	}
}

// AddApp registers an application model.
func (d *Driver) AddApp(a App) { d.Apps = append(d.Apps, a) }

// Start begins the logon/logoff cycle.
func (d *Driver) Start() {
	if d.logon == nil {
		d.logon = NewWinlogon(NewProc(d.M, "winlogon", `C:`, d.rng.Fork(0xbeef)), d.Lay)
	}
	// First logon shortly after boot.
	d.M.Sched.After(sim.FromSeconds(10+d.rng.Float64()*300), d.beginSession)
}

// Stop ends scheduling after the current events drain.
func (d *Driver) Stop() { d.ended = true }

func (d *Driver) beginSession(s *sim.Scheduler) {
	if d.ended {
		return
	}
	d.active = true
	d.Stats.Sessions++
	d.logon.Logon()
	// Launch each app's burst loop with a small stagger.
	for _, a := range d.Apps {
		a := a
		s.After(sim.FromSeconds(1+d.rng.Float64()*120), func(s2 *sim.Scheduler) {
			d.burstLoop(s2, a)
		})
	}
	length := sim.FromSeconds(d.SessionLength.Sample(d.rng) * 3600)
	s.After(length, d.endSession)
}

func (d *Driver) endSession(s *sim.Scheduler) {
	if d.ended {
		return
	}
	d.active = false
	d.logon.Logoff()
	idle := sim.FromSeconds(d.IdleLength.Sample(d.rng) * 3600)
	s.After(idle, d.beginSession)
}

func (d *Driver) burstLoop(s *sim.Scheduler, a App) {
	if d.ended || !d.active {
		return
	}
	d.Stats.Bursts++
	gap := a.Burst()
	s.After(gap, func(s2 *sim.Scheduler) { d.burstLoop(s2, a) })
}

func (d *Driver) String() string {
	return fmt.Sprintf("Driver(%s, %d apps)", d.M.Name, len(d.Apps))
}
