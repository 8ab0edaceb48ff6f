// Package tracedrv implements the trace filter driver of §3.2: it attaches
// above a file system driver, records all 54 IRP and FastIO event kinds
// into fixed-size records with dual 100 ns timestamps, writes a
// name-mapping record for each new file object, and stores records through
// a triple-buffering scheme (three 3,000-record buffers) that hands full
// buffers to the trace agent for shipping to the collection servers.
package tracedrv

import (
	"repro/internal/ntos/irp"
	"repro/internal/ntos/types"
	"repro/internal/sim"
	"repro/internal/tracefmt"
)

// BufferRecords is the per-buffer capacity (§3.2: "each storage buffer
// able to hold up to 3,000 records").
const BufferRecords = 3000

// NumBuffers is the triple-buffering depth.
const NumBuffers = 3

// FlushFunc receives a full (or force-flushed) buffer of records. The
// slice is owned by the callee.
type FlushFunc func(recs []tracefmt.Record)

// Stats tracks the apparatus behaviour §3.2 reports on.
type Stats struct {
	Records       uint64
	BufferFlushes uint64
	Overflows     uint64 // records dropped because all buffers were busy
	NameMaps      uint64
	// FastestFill and SlowestFill are the min/max observed buffer fill
	// durations ("an idle system fills this size storage buffer in an
	// hour; under heavy load, buffers fill in as little as 3-5 seconds").
	FastestFill sim.Duration
	SlowestFill sim.Duration
}

// Driver is the trace filter driver.
type Driver struct {
	next  irp.Driver
	sched *sim.Scheduler
	name  string

	// Remote tags records with AnnotRemote (network redirector stack).
	Remote bool

	flush FlushFunc

	// Triple buffering: buffers[active] accumulates; full buffers move to
	// inFlight until the (simulated) ship-to-server completes. Each buffer
	// is allocated when it first receives a record: a lightly loaded
	// driver never fills its first.
	buffers  [NumBuffers][]tracefmt.Record
	active   int
	inFlight int
	fillFrom sim.Time

	// ShipLatency models the host→collection-server transfer time of one
	// buffer; 0 means instantaneous.
	ShipLatency sim.Duration

	nextPagingID types.FileObjectID
	seen         map[types.FileObjectID]bool

	// Overhead is the per-record tracing cost (§3.2 measured the module
	// at up to 0.5% of total load; a fraction of a microsecond/record).
	Overhead sim.Duration

	Stats Stats

	// Metrics is the optional obs instrumentation (nil when disabled).
	Metrics *Metrics
}

// New creates a trace driver over next, delivering buffers via flush.
func New(name string, next irp.Driver, sched *sim.Scheduler, flush FlushFunc) *Driver {
	d := &Driver{
		next:  next,
		sched: sched,
		name:  name,
		flush: flush,

		ShipLatency:  sim.FromMilliseconds(30),
		nextPagingID: tracefmt.PagingObjectIDBase, // paging FOs get ids far above app FOs
		seen:         map[types.FileObjectID]bool{},
		Overhead:     sim.FromMicroseconds(0.5),
	}
	d.fillFrom = sched.Now()
	return d
}

// DriverName implements irp.Driver.
func (d *Driver) DriverName() string { return d.name }

// Rewire replaces the next driver in the chain — used when inserting
// additional filter drivers below the trace driver after assembly.
func (d *Driver) Rewire(next irp.Driver) { d.next = next }

// Dispatch implements irp.Driver: time-stamp, forward, record.
func (d *Driver) Dispatch(rq *irp.Request) {
	rq.Start = d.sched.Now()
	d.next.Dispatch(rq)
	rq.End = d.sched.Now()
	d.record(kindForIRP(rq), rq, 0)
}

// FastIo implements irp.Driver: forward and record the attempt; refused
// attempts are recorded with AnnotFastRefused (the IRP retry follows as
// its own record, exactly what a real filter would log).
func (d *Driver) FastIo(call types.FastIoCall, rq *irp.Request) bool {
	start := d.sched.Now()
	ok := d.next.FastIo(call, rq)
	rq.Start = start
	rq.End = d.sched.Now()
	annot := uint8(0)
	if !ok {
		annot |= tracefmt.AnnotFastRefused
	}
	d.record(kindForFastIo(call), rq, annot)
	return ok
}

// kindForIRP maps a completed IRP to its event kind.
func kindForIRP(rq *irp.Request) tracefmt.EventKind {
	switch rq.Major {
	case types.IrpMjCreate:
		if rq.Status.IsError() {
			return tracefmt.EvCreateFailed
		}
		return tracefmt.EvCreate
	case types.IrpMjRead:
		if rq.IsPaging() {
			if rq.ReadAhead {
				return tracefmt.EvReadAhead
			}
			return tracefmt.EvPagingRead
		}
		return tracefmt.EvRead
	case types.IrpMjWrite:
		if rq.IsPaging() {
			if rq.LazyWrite {
				return tracefmt.EvLazyWrite
			}
			return tracefmt.EvPagingWrite
		}
		return tracefmt.EvWrite
	case types.IrpMjSetInformation:
		switch rq.InfoClass {
		case types.SetInfoBasic:
			return tracefmt.EvSetBasic
		case types.SetInfoDisposition:
			return tracefmt.EvSetDisposition
		case types.SetInfoEndOfFile:
			return tracefmt.EvSetEndOfFile
		case types.SetInfoAllocation:
			return tracefmt.EvSetAllocation
		case types.SetInfoRename:
			return tracefmt.EvSetRename
		}
		return tracefmt.EvSetInformation
	case types.IrpMjDirectoryControl:
		switch rq.Minor {
		case types.IrpMnQueryDirectory:
			return tracefmt.EvQueryDirectory
		case types.IrpMnNotifyChangeDirectory:
			return tracefmt.EvNotifyChangeDirectory
		}
		return tracefmt.EvDirectoryControl
	case types.IrpMjFileSystemControl:
		switch rq.Minor {
		case types.IrpMnUserFsRequest:
			return tracefmt.EvUserFsRequest
		case types.IrpMnMountVolume:
			return tracefmt.EvMountVolume
		case types.IrpMnVerifyVolume:
			return tracefmt.EvVerifyVolume
		}
		return tracefmt.EvFileSystemControl
	case types.IrpMjLockControl:
		switch rq.Minor {
		case types.IrpMnLock:
			return tracefmt.EvLock
		case types.IrpMnUnlockSingle:
			return tracefmt.EvUnlockSingle
		case types.IrpMnUnlockAll:
			return tracefmt.EvUnlockAll
		}
		return tracefmt.EvLockControl
	case types.IrpMjQueryInformation:
		return tracefmt.EvQueryInformation
	case types.IrpMjQueryEa:
		return tracefmt.EvQueryEa
	case types.IrpMjSetEa:
		return tracefmt.EvSetEa
	case types.IrpMjFlushBuffers:
		return tracefmt.EvFlushBuffers
	case types.IrpMjQueryVolumeInformation:
		return tracefmt.EvQueryVolumeInformation
	case types.IrpMjSetVolumeInformation:
		return tracefmt.EvSetVolumeInformation
	case types.IrpMjDeviceControl:
		return tracefmt.EvDeviceControl
	case types.IrpMjCleanup:
		return tracefmt.EvCleanup
	case types.IrpMjClose:
		return tracefmt.EvClose
	case types.IrpMjQuerySecurity:
		return tracefmt.EvQuerySecurity
	case types.IrpMjSetSecurity:
		return tracefmt.EvSetSecurity
	case types.IrpMjPnp:
		return tracefmt.EvPnp
	}
	return tracefmt.EvDeviceControl
}

// kindForFastIo maps a FastIO call to its event kind.
func kindForFastIo(call types.FastIoCall) tracefmt.EventKind {
	return tracefmt.EvFastCheckIfPossible + tracefmt.EventKind(call)
}

// record builds and stores one trace record (plus a name-map record for a
// first-seen file object).
func (d *Driver) record(kind tracefmt.EventKind, rq *irp.Request, annot uint8) {
	d.sched.Advance(d.Overhead)
	fo := rq.FileObject
	var foID types.FileObjectID
	var foFlags types.FileObjectFlags
	var fileSize, bytePos int64
	if fo != nil {
		if fo.ID == 0 {
			// Cache-manager paging file objects arrive without an id.
			fo.ID = d.nextPagingID
			d.nextPagingID++
		}
		foID = fo.ID
		foFlags = fo.Flags
		fileSize = fo.FileSize
		bytePos = fo.CurrentByteOffset
		if !d.seen[foID] {
			d.seen[foID] = true
			d.Stats.NameMaps++
			d.Metrics.nameMap()
			nm := tracefmt.Record{
				Kind:   tracefmt.EvNameMap,
				FileID: foID,
				Proc:   rq.ProcessID,
				Start:  rq.Start,
				End:    rq.Start,
			}
			nm.SetName(fo.Path)
			d.store(nm)
		}
	}
	if rq.FromCache {
		annot |= tracefmt.AnnotFromCache
	}
	if rq.ReadAhead {
		annot |= tracefmt.AnnotReadAhead
	}
	if rq.LazyWrite {
		annot |= tracefmt.AnnotLazyWrite
	}
	if d.Remote {
		annot |= tracefmt.AnnotRemote
	}
	rec := tracefmt.Record{
		Kind:        kind,
		Major:       rq.Major,
		Minor:       rq.Minor,
		Annot:       annot,
		Flags:       rq.Flags,
		FOFl:        foFlags,
		FileID:      foID,
		Proc:        rq.ProcessID,
		Status:      rq.Status,
		Offset:      rq.Offset,
		Length:      int32(rq.Length),
		Returned:    int32(rq.Information),
		FileSize:    fileSize,
		BytePos:     bytePos,
		Disposition: rq.Disposition,
		Options:     rq.Options,
		Attributes:  rq.Attributes,
		InfoClass:   rq.InfoClass,
		FsControl:   rq.FsControl,
		Start:       rq.Start,
		End:         rq.End,
	}
	d.store(rec)
}

// Mark injects an apparatus event (agent/snapshot markers).
func (d *Driver) Mark(kind tracefmt.EventKind) {
	now := d.sched.Now()
	d.store(tracefmt.Record{Kind: kind, Start: now, End: now})
}

// store appends to the active buffer, rotating on fill.
func (d *Driver) store(rec tracefmt.Record) {
	d.Stats.Records++
	d.Metrics.record()
	buf := &d.buffers[d.active]
	if *buf == nil {
		*buf = make([]tracefmt.Record, 0, BufferRecords)
	}
	*buf = append(*buf, rec)
	if len(*buf) >= BufferRecords {
		d.rotate(false)
	}
}

// rotate ships the active buffer and moves to the next one. If every
// other buffer is still in flight the driver must drop records — the
// overflow condition the agent watches for (it never fired in the paper's
// runs, nor should it here).
func (d *Driver) rotate(force bool) {
	buf := d.buffers[d.active]
	if len(buf) == 0 {
		return
	}
	fill := d.sched.Now().Sub(d.fillFrom)
	if !force {
		if d.Stats.FastestFill == 0 || fill < d.Stats.FastestFill {
			d.Stats.FastestFill = fill
		}
		if fill > d.Stats.SlowestFill {
			d.Stats.SlowestFill = fill
		}
	}
	if d.inFlight >= NumBuffers-1 {
		// All other buffers busy: drop.
		d.Stats.Overflows += uint64(len(buf))
		d.Metrics.overflow(len(buf))
		d.buffers[d.active] = buf[:0]
		d.fillFrom = d.sched.Now()
		return
	}
	d.inFlight++
	d.Stats.BufferFlushes++
	d.Metrics.flush(fill, force)
	shipped := make([]tracefmt.Record, len(buf))
	copy(shipped, buf)
	d.buffers[d.active] = buf[:0]
	d.active = (d.active + 1) % NumBuffers
	d.fillFrom = d.sched.Now()
	deliver := func(*sim.Scheduler) {
		d.inFlight--
		if d.flush != nil {
			d.flush(shipped)
		}
	}
	if d.ShipLatency > 0 {
		d.sched.After(d.ShipLatency, deliver)
	} else {
		deliver(d.sched)
	}
}

// Flush force-ships any buffered records (end of study).
func (d *Driver) Flush() { d.rotate(true) }

// Release drops the driver's buffers once Flush has shipped what they
// held, so a stopped machine keeps none of its three 3,000-record
// buffers. A record stored later allocates a buffer again, as the first
// record does.
func (d *Driver) Release() { d.buffers = [NumBuffers][]tracefmt.Record{} }
