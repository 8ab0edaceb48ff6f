package analysis

import (
	"repro/internal/colstore"
	"repro/internal/ntos/machine"
	"repro/internal/ntos/types"
	"repro/internal/sim"
	"repro/internal/tracefmt"
)

// AccessClass is the Table 3 file-usage split.
type AccessClass uint8

// Access classes.
const (
	AccessNone AccessClass = iota // control/directory-only session
	AccessReadOnly
	AccessWriteOnly
	AccessReadWrite
)

func (a AccessClass) String() string {
	switch a {
	case AccessNone:
		return "control-only"
	case AccessReadOnly:
		return "read-only"
	case AccessWriteOnly:
		return "write-only"
	case AccessReadWrite:
		return "read/write"
	}
	return "unknown"
}

// Pattern is the Table 3 transfer-pattern split.
type Pattern uint8

// Patterns.
const (
	PatternNone Pattern = iota
	PatternWholeFile
	PatternOtherSequential
	PatternRandom
)

func (p Pattern) String() string {
	switch p {
	case PatternNone:
		return "none"
	case PatternWholeFile:
		return "whole-file"
	case PatternOtherSequential:
		return "other-sequential"
	case PatternRandom:
		return "random"
	}
	return "unknown"
}

// Instance is one row of the §4 instance fact table: a single file
// open–close sequence with summary data for all operations on the object
// during its lifetime.
type Instance struct {
	Machine  string
	Category machine.Category
	Remote   bool

	FileID  types.FileObjectID
	Path    string
	Ext     string
	Process uint32

	OpenTime    sim.Time
	CleanupTime sim.Time
	CloseTime   sim.Time

	Failed     bool
	FailStatus types.Status

	Disposition types.CreateDisposition
	Options     types.CreateOptions
	Attributes  types.FileAttributes
	FOFlags     types.FileObjectFlags

	SizeAtOpen  int64
	SizeAtClose int64

	Reads, Writes           int
	BytesRead, BytesWritten int64
	CacheHitReads           int
	FastReads, FastWrites   int
	IrpReads, IrpWrites     int

	ControlOps int // FSCTL/IOCTL operations
	DirOps     int // directory queries/notifications
	QueryOps   int // metadata queries
	SetOps     int // set-information operations
	LockOps    int
	FlushOps   int

	// DeleteRequested marks a successful FileDispositionInformation.
	DeleteRequested bool

	// ReadRuns and WriteRuns are the completed sequential run lengths
	// (bytes) within this session (Figures 1–2).
	ReadRuns  []int64
	WriteRuns []int64

	// run state (builder-internal).
	readRunStart, readNext   int64
	writeRunStart, writeNext int64
	readSeq, writeSeq        bool
	firstReadOff             int64
	firstWriteOff            int64

	Class   AccessClass
	Pattern Pattern
}

// HoldTime is the open-to-cleanup duration (the "file open time" of
// Figures 5 and 12; the handle lifetime as the application saw it).
func (in *Instance) HoldTime() sim.Duration {
	if in.CleanupTime == 0 {
		return -1 // never closed in the trace
	}
	return in.CleanupTime.Sub(in.OpenTime)
}

// CleanupToClose is the §8.1 two-stage close gap.
func (in *Instance) CleanupToClose() sim.Duration {
	if in.CleanupTime == 0 || in.CloseTime == 0 {
		return -1
	}
	return in.CloseTime.Sub(in.CleanupTime)
}

// IsDataSession reports whether any bytes moved.
func (in *Instance) IsDataSession() bool { return in.Reads > 0 || in.Writes > 0 }

// Bytes is total data moved in the session.
func (in *Instance) Bytes() int64 { return in.BytesRead + in.BytesWritten }

// BuildInstances constructs the instance table from one machine's
// records. Cache-manager paging records are excluded (§3.3 duplicate
// filtering); VM paging I/O is not part of any instance either — it is
// accounted separately by the throughput analyses.
func BuildInstances(mt *MachineTrace) []*Instance {
	if BuildInstancesHook != nil {
		BuildInstancesHook(mt.Name)
	}
	t := mt.tab
	var out []*Instance
	open := map[types.FileObjectID]*Instance{}

	finalize := func(in *Instance) {
		in.finishRuns()
		in.classify()
		out = append(out, in)
	}

	for i := 0; i < t.N; i++ {
		id := t.FileIDs[i]
		if id == 0 || id >= tracefmt.PagingObjectIDBase {
			continue
		}
		k := t.Kinds[i]
		switch k {
		case tracefmt.EvNameMap:
			continue
		case tracefmt.EvCreate, tracefmt.EvCreateFailed:
			in := &Instance{
				Machine:     mt.Name,
				Category:    mt.Category,
				Remote:      t.Annots[i]&tracefmt.AnnotRemote != 0,
				FileID:      id,
				Path:        mt.PathOf(id),
				Process:     t.Procs[i],
				OpenTime:    t.Starts[i],
				Disposition: t.Dispositions[i],
				Options:     t.Options[i],
				Attributes:  t.Attributes[i],
				FOFlags:     t.FOFls[i],
				SizeAtOpen:  t.FileSizes[i],
				SizeAtClose: t.FileSizes[i],
			}
			in.Ext = ExtOf(in.Path)
			if k == tracefmt.EvCreateFailed {
				in.Failed = true
				in.FailStatus = t.Statuses[i]
				in.CleanupTime = t.Ends[i]
				in.CloseTime = t.Ends[i]
				finalize(in)
				continue
			}
			open[id] = in
		default:
			in := open[id]
			if in == nil {
				continue
			}
			in.absorb(t, i)
			if k == tracefmt.EvClose {
				delete(open, id)
				finalize(in)
			}
		}
	}
	// Sessions still open at trace end are finalized without close times.
	for _, in := range open {
		finalize(in)
	}
	// Keep deterministic output order: sort by open time then id.
	sortInstances(out)
	return out
}

// absorb folds row i of the table into the instance summary.
func (in *Instance) absorb(t *colstore.Batch, i int) {
	switch k := t.Kinds[i]; k {
	case tracefmt.EvPagingRead:
		// VM-manager paging against an application FileObject: executable
		// image and mapped-section loading. §3.3 kept these precisely so
		// executable accesses are accounted as file reads (cache-manager
		// paging duplicates never reach here — they ride ids above
		// PagingObjectIDBase and are filtered by the builder).
		if t.Statuses[i].IsError() {
			return
		}
		in.noteRead(t.Offsets[i], int64(t.Lengths[i]))
		in.IrpReads++
	case tracefmt.EvRead, tracefmt.EvFastRead, tracefmt.EvFastMdlRead:
		if t.Annots[i]&tracefmt.AnnotFastRefused != 0 || t.Statuses[i].IsError() {
			return
		}
		off := t.BytePositions[i] - int64(t.Returns[i])
		in.noteRead(off, int64(t.Returns[i]))
		if k == tracefmt.EvRead {
			in.IrpReads++
		} else {
			in.FastReads++
		}
		if t.Annots[i]&tracefmt.AnnotFromCache != 0 {
			in.CacheHitReads++
		}
		in.SizeAtClose = t.FileSizes[i]
	case tracefmt.EvWrite, tracefmt.EvFastWrite, tracefmt.EvFastMdlWrite:
		if t.Annots[i]&tracefmt.AnnotFastRefused != 0 || t.Statuses[i].IsError() {
			return
		}
		off := t.BytePositions[i] - int64(t.Returns[i])
		in.noteWrite(off, int64(t.Returns[i]))
		if k == tracefmt.EvWrite {
			in.IrpWrites++
		} else {
			in.FastWrites++
		}
		in.SizeAtClose = t.FileSizes[i]
	case tracefmt.EvUserFsRequest, tracefmt.EvFileSystemControl, tracefmt.EvDeviceControl,
		tracefmt.EvFastDeviceControl, tracefmt.EvMountVolume, tracefmt.EvVerifyVolume:
		in.ControlOps++
	case tracefmt.EvQueryDirectory, tracefmt.EvNotifyChangeDirectory, tracefmt.EvDirectoryControl:
		in.DirOps++
	case tracefmt.EvQueryInformation, tracefmt.EvFastQueryBasicInfo,
		tracefmt.EvFastQueryStandardInfo, tracefmt.EvFastQueryNetworkOpenInfo,
		tracefmt.EvQueryEa, tracefmt.EvQuerySecurity, tracefmt.EvQueryVolumeInformation:
		in.QueryOps++
	case tracefmt.EvSetDisposition:
		in.SetOps++
		if !t.Statuses[i].IsError() {
			in.DeleteRequested = true
		}
	case tracefmt.EvSetEndOfFile, tracefmt.EvSetAllocation, tracefmt.EvSetBasic,
		tracefmt.EvSetRename, tracefmt.EvSetInformation, tracefmt.EvSetEa,
		tracefmt.EvSetSecurity, tracefmt.EvSetVolumeInformation:
		in.SetOps++
		in.SizeAtClose = t.FileSizes[i]
	case tracefmt.EvLock, tracefmt.EvUnlockSingle, tracefmt.EvUnlockAll, tracefmt.EvLockControl,
		tracefmt.EvFastLock, tracefmt.EvFastUnlockSingle, tracefmt.EvFastUnlockAll:
		in.LockOps++
	case tracefmt.EvFlushBuffers:
		in.FlushOps++
	case tracefmt.EvCleanup:
		in.CleanupTime = t.Ends[i]
	case tracefmt.EvClose:
		in.CloseTime = t.Ends[i]
	}
}

// noteRead updates read totals and sequential-run state.
func (in *Instance) noteRead(off, n int64) {
	if n <= 0 {
		// Zero-byte or failed transfer still counts as an access attempt.
		in.Reads++
		return
	}
	if in.Reads == 0 {
		in.firstReadOff = off
		in.readRunStart = off
		in.readSeq = true
	} else if off != in.readNext {
		in.ReadRuns = append(in.ReadRuns, in.readNext-in.readRunStart)
		in.readRunStart = off
		in.readSeq = false
	}
	in.readNext = off + n
	in.Reads++
	in.BytesRead += n
}

// noteWrite updates write totals and sequential-run state.
func (in *Instance) noteWrite(off, n int64) {
	if n <= 0 {
		in.Writes++
		return
	}
	if in.Writes == 0 {
		in.firstWriteOff = off
		in.writeRunStart = off
		in.writeSeq = true
	} else if off != in.writeNext {
		in.WriteRuns = append(in.WriteRuns, in.writeNext-in.writeRunStart)
		in.writeRunStart = off
		in.writeSeq = false
	}
	in.writeNext = off + n
	in.Writes++
	in.BytesWritten += n
}

// finishRuns closes any open sequential runs.
func (in *Instance) finishRuns() {
	if in.Reads > 0 && in.readNext > in.readRunStart {
		in.ReadRuns = append(in.ReadRuns, in.readNext-in.readRunStart)
	}
	if in.Writes > 0 && in.writeNext > in.writeRunStart {
		in.WriteRuns = append(in.WriteRuns, in.writeNext-in.writeRunStart)
	}
}

// classify assigns the Table 3 access class and pattern.
func (in *Instance) classify() {
	switch {
	case in.Reads > 0 && in.Writes > 0:
		in.Class = AccessReadWrite
	case in.Reads > 0:
		in.Class = AccessReadOnly
	case in.Writes > 0:
		in.Class = AccessWriteOnly
	default:
		in.Class = AccessNone
		in.Pattern = PatternNone
		return
	}

	readsSequential := len(in.ReadRuns) <= 1
	writesSequential := len(in.WriteRuns) <= 1
	size := in.SizeAtClose
	if size < in.SizeAtOpen {
		size = in.SizeAtOpen
	}

	sequential := true
	whole := true
	if in.Reads > 0 {
		sequential = sequential && readsSequential
		whole = whole && readsSequential && in.firstReadOff == 0 && in.BytesRead >= size
	}
	if in.Writes > 0 {
		sequential = sequential && writesSequential
		whole = whole && writesSequential && in.firstWriteOff == 0 && in.BytesWritten >= size
	}
	switch {
	case whole && size > 0:
		in.Pattern = PatternWholeFile
	case sequential:
		in.Pattern = PatternOtherSequential
	default:
		in.Pattern = PatternRandom
	}
}

func sortInstances(ins []*Instance) {
	// Insertion-ordered already except for the trailing still-open ones;
	// a full stable sort keeps everything canonical.
	for i := 1; i < len(ins); i++ {
		for j := i; j > 0; j-- {
			a, b := ins[j-1], ins[j]
			if a.OpenTime < b.OpenTime || (a.OpenTime == b.OpenTime && a.FileID <= b.FileID) {
				break
			}
			ins[j-1], ins[j] = b, a
		}
	}
}
