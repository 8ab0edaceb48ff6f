package analysis

import (
	"testing"

	"repro/internal/ntos/machine"
	"repro/internal/ntos/types"
	"repro/internal/sim"
	"repro/internal/tracefmt"
)

// recBuilder assembles synthetic record streams for precise unit tests.
type recBuilder struct {
	recs []tracefmt.Record
	now  sim.Time
}

func (b *recBuilder) at(d sim.Duration) *recBuilder { b.now = b.now.Add(d); return b }

func (b *recBuilder) add(r tracefmt.Record) *recBuilder {
	r.Start = b.now
	r.End = b.now.Add(10 * sim.Microsecond)
	b.recs = append(b.recs, r)
	return b
}

func (b *recBuilder) nameMap(id types.FileObjectID, path string) *recBuilder {
	r := tracefmt.Record{Kind: tracefmt.EvNameMap, FileID: id}
	r.SetName(path)
	return b.add(r)
}

func (b *recBuilder) open(id types.FileObjectID, path string, size int64, result types.CreateResult) *recBuilder {
	b.nameMap(id, path)
	return b.add(tracefmt.Record{Kind: tracefmt.EvCreate, FileID: id,
		FileSize: size, Returned: int32(result), Proc: 7})
}

func (b *recBuilder) openFail(id types.FileObjectID, path string, st types.Status) *recBuilder {
	b.nameMap(id, path)
	return b.add(tracefmt.Record{Kind: tracefmt.EvCreateFailed, FileID: id, Status: st})
}

func (b *recBuilder) read(id types.FileObjectID, off, n int64, fast, cached bool) *recBuilder {
	k := tracefmt.EvRead
	if fast {
		k = tracefmt.EvFastRead
	}
	var annot uint8
	if cached {
		annot = tracefmt.AnnotFromCache
	}
	return b.add(tracefmt.Record{Kind: k, FileID: id, Annot: annot,
		Length: int32(n), Returned: int32(n), BytePos: off + n, FileSize: off + n})
}

func (b *recBuilder) write(id types.FileObjectID, off, n int64, size int64) *recBuilder {
	return b.add(tracefmt.Record{Kind: tracefmt.EvFastWrite, FileID: id,
		Length: int32(n), Returned: int32(n), BytePos: off + n, FileSize: size})
}

func (b *recBuilder) closeSeq(id types.FileObjectID) *recBuilder {
	b.add(tracefmt.Record{Kind: tracefmt.EvCleanup, FileID: id})
	b.at(20 * sim.Microsecond)
	return b.add(tracefmt.Record{Kind: tracefmt.EvClose, FileID: id})
}

func (b *recBuilder) trace(t *testing.T) *MachineTrace {
	t.Helper()
	return NewMachineTrace("test", machine.Personal, b.recs)
}

// mustRows returns mt's records, failing the test if they cannot be read.
func mustRows(t *testing.T, mt *MachineTrace) []tracefmt.Record {
	t.Helper()
	recs, err := mt.Rows()
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestInstanceWholeFileSequentialRead(t *testing.T) {
	b := &recBuilder{}
	b.open(1, `C:\a.txt`, 8192, types.FileOpened)
	b.at(sim.Millisecond).read(1, 0, 4096, false, false)
	b.at(sim.Millisecond).read(1, 4096, 4096, true, true)
	b.at(sim.Millisecond).closeSeq(1)
	ins := BuildInstances(b.trace(t))
	if len(ins) != 1 {
		t.Fatalf("instances = %d", len(ins))
	}
	in := ins[0]
	if in.Class != AccessReadOnly {
		t.Errorf("class = %v", in.Class)
	}
	if in.Pattern != PatternWholeFile {
		t.Errorf("pattern = %v", in.Pattern)
	}
	if in.Reads != 2 || in.BytesRead != 8192 {
		t.Errorf("reads=%d bytes=%d", in.Reads, in.BytesRead)
	}
	if in.CacheHitReads != 1 || in.FastReads != 1 || in.IrpReads != 1 {
		t.Errorf("hit=%d fast=%d irp=%d", in.CacheHitReads, in.FastReads, in.IrpReads)
	}
	if len(in.ReadRuns) != 1 || in.ReadRuns[0] != 8192 {
		t.Errorf("read runs = %v", in.ReadRuns)
	}
	if in.HoldTime() <= 0 || in.CleanupToClose() <= 0 {
		t.Errorf("times: hold=%v gap=%v", in.HoldTime(), in.CleanupToClose())
	}
}

func TestInstancePartialSequential(t *testing.T) {
	b := &recBuilder{}
	b.open(2, `C:\b.dat`, 100000, types.FileOpened)
	b.at(sim.Millisecond).read(2, 1000, 4096, false, false)
	b.at(sim.Millisecond).read(2, 5096, 4096, false, false)
	b.closeSeq(2)
	ins := BuildInstances(b.trace(t))
	if ins[0].Pattern != PatternOtherSequential {
		t.Errorf("pattern = %v, want other-sequential", ins[0].Pattern)
	}
}

func TestInstanceRandomAccess(t *testing.T) {
	b := &recBuilder{}
	b.open(3, `C:\c.db`, 100000, types.FileOpened)
	b.at(sim.Millisecond).read(3, 50000, 4096, false, false)
	b.at(sim.Millisecond).read(3, 0, 4096, false, false)
	b.at(sim.Millisecond).read(3, 90000, 4096, false, false)
	b.closeSeq(3)
	ins := BuildInstances(b.trace(t))
	if ins[0].Pattern != PatternRandom {
		t.Errorf("pattern = %v, want random", ins[0].Pattern)
	}
	if len(ins[0].ReadRuns) != 3 {
		t.Errorf("runs = %v", ins[0].ReadRuns)
	}
}

func TestInstanceReadWriteClass(t *testing.T) {
	b := &recBuilder{}
	b.open(4, `C:\d.log`, 0, types.FileCreated)
	b.at(sim.Millisecond).write(4, 0, 4096, 4096)
	b.at(sim.Millisecond).read(4, 0, 4096, true, true)
	b.closeSeq(4)
	ins := BuildInstances(b.trace(t))
	if ins[0].Class != AccessReadWrite {
		t.Errorf("class = %v", ins[0].Class)
	}
	if ins[0].BytesWritten != 4096 || ins[0].SizeAtClose != 4096 {
		t.Errorf("written=%d size=%d", ins[0].BytesWritten, ins[0].SizeAtClose)
	}
}

func TestInstanceControlOnly(t *testing.T) {
	b := &recBuilder{}
	b.open(5, `C:\e.ini`, 100, types.FileOpened)
	b.add(tracefmt.Record{Kind: tracefmt.EvFastQueryBasicInfo, FileID: 5})
	b.add(tracefmt.Record{Kind: tracefmt.EvUserFsRequest, FileID: 5})
	b.closeSeq(5)
	ins := BuildInstances(b.trace(t))
	if ins[0].Class != AccessNone || ins[0].IsDataSession() {
		t.Errorf("class = %v", ins[0].Class)
	}
	if ins[0].QueryOps != 1 || ins[0].ControlOps != 1 {
		t.Errorf("query=%d control=%d", ins[0].QueryOps, ins[0].ControlOps)
	}
}

func TestInstanceFailedOpen(t *testing.T) {
	b := &recBuilder{}
	b.openFail(6, `C:\missing`, types.StatusObjectNameNotFound)
	ins := BuildInstances(b.trace(t))
	if len(ins) != 1 || !ins[0].Failed {
		t.Fatalf("failed instance missing: %+v", ins)
	}
	if ins[0].FailStatus != types.StatusObjectNameNotFound {
		t.Errorf("status = %v", ins[0].FailStatus)
	}
}

func TestInstanceStillOpenAtTraceEnd(t *testing.T) {
	b := &recBuilder{}
	b.open(7, `C:\held`, 10, types.FileOpened)
	b.read(7, 0, 10, false, false)
	ins := BuildInstances(b.trace(t))
	if len(ins) != 1 {
		t.Fatalf("instances = %d", len(ins))
	}
	if ins[0].HoldTime() >= 0 {
		t.Error("still-open session reported a hold time")
	}
}

func TestCachePagingRecordsExcluded(t *testing.T) {
	b := &recBuilder{}
	b.open(8, `C:\f`, 4096, types.FileOpened)
	// Cache-manager paging read against a paging FO id.
	pid := types.FileObjectID(tracefmt.PagingObjectIDBase + 5)
	b.nameMap(pid, `C:\f`)
	b.add(tracefmt.Record{Kind: tracefmt.EvPagingRead, FileID: pid, Length: 4096})
	b.read(8, 0, 4096, false, false)
	b.closeSeq(8)
	mt := b.trace(t)
	ins := BuildInstances(mt)
	if len(ins) != 1 {
		t.Fatalf("paging FO leaked into instances: %d", len(ins))
	}
	if rows := mustRows(t, mt); !IsCachePaging(&rows[3]) && !IsCachePaging(&rows[4]) {
		t.Error("IsCachePaging missed the paging record")
	}
}

func TestAccessPatternsShares(t *testing.T) {
	b := &recBuilder{}
	// Two whole-file RO sessions and one random RW session.
	b.open(1, `C:\x`, 100, types.FileOpened).read(1, 0, 100, false, false).closeSeq(1)
	b.at(sim.Second)
	b.open(2, `C:\y`, 100, types.FileOpened).read(2, 0, 100, false, false).closeSeq(2)
	b.at(sim.Second)
	b.open(3, `C:\z`, 100000, types.FileOpened)
	b.read(3, 50000, 100, false, false).read(3, 0, 100, false, false)
	b.write(3, 90000, 100, 100000)
	b.closeSeq(3)
	ins := BuildInstances(b.trace(t))
	pt := AccessPatterns(ins)
	if got := pt.ClassAccesses[AccessReadOnly]; got < 66 || got > 67 {
		t.Errorf("RO access share = %v, want ~66.7", got)
	}
	ro := pt.Cells[AccessReadOnly][PatternWholeFile]
	if ro.Accesses != 100 {
		t.Errorf("RO whole-file share = %v", ro.Accesses)
	}
	rw := pt.Cells[AccessReadWrite][PatternRandom]
	if rw.Accesses != 100 {
		t.Errorf("RW random share = %v", rw.Accesses)
	}
}

func TestLifetimesOverwrite(t *testing.T) {
	b := &recBuilder{}
	// Birth.
	b.open(1, `C:\t.tmp`, 0, types.FileCreated)
	b.write(1, 0, 500, 500)
	b.closeSeq(1)
	// Overwrite 2ms later: carries pre-truncate size in Offset.
	b.at(2 * sim.Millisecond)
	b.nameMap(2, `C:\t.tmp`)
	b.add(tracefmt.Record{Kind: tracefmt.EvCreate, FileID: 2, Proc: 7,
		Returned: int32(types.FileOverwritten), Offset: 500})
	b.write(2, 0, 300, 300)
	b.closeSeq(2)
	ls := Lifetimes(b.trace(t))
	if len(ls.Samples) != 1 {
		t.Fatalf("samples = %d", len(ls.Samples))
	}
	s := ls.Samples[0]
	if s.Method != DeleteByOverwrite {
		t.Errorf("method = %v", s.Method)
	}
	if s.SizeAtDeath != 500 {
		t.Errorf("size at death = %d", s.SizeAtDeath)
	}
	if s.Lifetime < sim.Millisecond || s.Lifetime > 10*sim.Millisecond {
		t.Errorf("lifetime = %v", s.Lifetime)
	}
	if s.CloseToDeath < 0 {
		t.Errorf("close-to-death = %v", s.CloseToDeath)
	}
	if !s.SameProcess {
		t.Error("same-process not detected")
	}
	// Births: initial create + overwrite rebirth.
	if ls.Births != 2 || ls.SurvivorCount != 1 {
		t.Errorf("births=%d survivors=%d", ls.Births, ls.SurvivorCount)
	}
}

func TestLifetimesExplicitDelete(t *testing.T) {
	b := &recBuilder{}
	b.open(1, `C:\u.tmp`, 0, types.FileCreated)
	b.write(1, 0, 100, 100)
	b.closeSeq(1)
	b.at(sim.Second)
	// Reopen and delete.
	b.open(2, `C:\u.tmp`, 100, types.FileOpened)
	b.add(tracefmt.Record{Kind: tracefmt.EvSetDisposition, FileID: 2, Status: types.StatusSuccess})
	b.closeSeq(2)
	ls := Lifetimes(b.trace(t))
	if len(ls.Samples) != 1 || ls.Samples[0].Method != DeleteExplicit {
		t.Fatalf("samples = %+v", ls.Samples)
	}
	if got := ls.Samples[0].Lifetime; got < sim.Second || got > 2*sim.Second {
		t.Errorf("lifetime = %v", got)
	}
	if !ls.Samples[0].ReopenedBetween {
		t.Error("reopen not detected")
	}
	if got := ls.MethodShare(DeleteExplicit); got != 1 {
		t.Errorf("explicit share = %v", got)
	}
	if got := ls.DeadWithin(5 * sim.Second); got != 1 {
		t.Errorf("DeadWithin(5s) = %v", got)
	}
}

func TestLifetimesTempAttr(t *testing.T) {
	b := &recBuilder{}
	b.nameMap(1, `C:\v.tmp`)
	b.add(tracefmt.Record{Kind: tracefmt.EvCreate, FileID: 1,
		Returned: int32(types.FileCreated), Options: types.OptDeleteOnClose,
		Attributes: types.AttrTemporary})
	b.write(1, 0, 100, 100)
	b.at(sim.Millisecond).closeSeq(1)
	ls := Lifetimes(b.trace(t))
	if len(ls.Samples) != 1 || ls.Samples[0].Method != DeleteByTempAttr {
		t.Fatalf("samples = %+v", ls.Samples)
	}
}

func TestControlsAndErrors(t *testing.T) {
	b := &recBuilder{}
	b.open(1, `C:\a`, 10, types.FileOpened)
	b.add(tracefmt.Record{Kind: tracefmt.EvUserFsRequest, FileID: 1,
		FsControl: types.FsctlIsVolumeMounted})
	b.closeSeq(1)
	b.openFail(2, `C:\gone`, types.StatusObjectNameNotFound)
	b.openFail(3, `C:\dup`, types.StatusObjectNameCollision)
	b.open(4, `C:\data`, 100, types.FileOpened).read(4, 0, 100, false, false).closeSeq(4)
	mt := b.trace(t)
	ins := BuildInstances(mt)
	c := Controls(mt, ins)
	if c.Opens != 4 || c.FailedOpens != 2 {
		t.Fatalf("opens=%d failed=%d", c.Opens, c.FailedOpens)
	}
	if c.NotFoundErrors != 1 || c.CollisionErrors != 1 {
		t.Errorf("notfound=%d collision=%d", c.NotFoundErrors, c.CollisionErrors)
	}
	// Control fraction: 1 control-only + 2 failed of 4 = 75%.
	if got := c.ControlFraction(); got != 0.75 {
		t.Errorf("control fraction = %v", got)
	}
	if got := c.FailureFraction(); got != 0.5 {
		t.Errorf("failure fraction = %v", got)
	}
	if c.VolumeMountedOps != 1 {
		t.Errorf("volume-mounted = %d", c.VolumeMountedOps)
	}
}

func TestReuse(t *testing.T) {
	b := &recBuilder{}
	// Path read twice.
	b.open(1, `C:\r`, 10, types.FileOpened).read(1, 0, 10, false, false).closeSeq(1)
	b.at(sim.Second)
	b.open(2, `C:\r`, 10, types.FileOpened).read(2, 0, 10, false, false).closeSeq(2)
	// Path written then read.
	b.open(3, `C:\w`, 0, types.FileCreated).write(3, 0, 10, 10).closeSeq(3)
	b.at(sim.Second)
	b.open(4, `C:\w`, 10, types.FileOpened).read(4, 0, 10, false, false).closeSeq(4)
	ins := BuildInstances(b.trace(t))
	rs := Reuse(ins)
	if rs.ReadOnlyReopened != 1 {
		t.Errorf("RO reopened = %d", rs.ReadOnlyReopened)
	}
	if rs.WriteOnlyThenRead != 1 {
		t.Errorf("WO-then-read = %d", rs.WriteOnlyThenRead)
	}
}

func TestUserActivity(t *testing.T) {
	b := &recBuilder{}
	b.open(1, `C:\f`, 1<<20, types.FileOpened)
	// 100 KB in the first 10-second interval.
	for i := 0; i < 25; i++ {
		b.at(100*sim.Millisecond).read(1, int64(i*4096), 4096, false, false)
	}
	b.closeSeq(1)
	ds := &DataSet{Machines: []*MachineTrace{b.trace(t)}}
	row := UserActivity(ds, 10*sim.Second, 0)
	if row.MaxActiveUsers != 1 {
		t.Errorf("max active = %d", row.MaxActiveUsers)
	}
	// 25 × 4 KB = 100 KB over 10 s = 10 KB/s.
	if row.AvgThroughputKBs < 9 || row.AvgThroughputKBs > 11 {
		t.Errorf("throughput = %v KB/s, want ~10", row.AvgThroughputKBs)
	}
}

func TestFileTypeDimension(t *testing.T) {
	if c := ClassifyExt("mbx"); c.Major != "application" || c.Minor != "mail" {
		t.Errorf("mbx = %+v", c)
	}
	if c := ClassifyExt("DLL"); c.Minor != "library" {
		t.Errorf("DLL = %+v", c)
	}
	if c := ClassifyExt("xyz"); c.Major != "other" {
		t.Errorf("xyz = %+v", c)
	}
	if got := ExtOf(`C:\winnt\system32\KERNEL32.DLL`); got != "dll" {
		t.Errorf("ExtOf = %q", got)
	}
	if got := ExtOf(`C:\dir.ext\noext`); got != "" {
		t.Errorf("ExtOf dotted dir = %q", got)
	}
}

func TestOpenInterarrivals(t *testing.T) {
	b := &recBuilder{}
	b.open(1, `C:\a`, 10, types.FileOpened).read(1, 0, 10, false, false).closeSeq(1)
	b.at(10 * sim.Millisecond)
	b.open(2, `C:\b`, 10, types.FileOpened).read(2, 0, 10, false, false).closeSeq(2)
	b.at(5 * sim.Millisecond)
	b.open(3, `C:\c`, 10, types.FileOpened).closeSeq(3) // control-only
	ins := BuildInstances(b.trace(t))
	dataGaps, _ := OpenInterarrivals(ins)
	if len(dataGaps) != 1 {
		t.Fatalf("data gaps = %v", dataGaps)
	}
	if dataGaps[0] < 9 || dataGaps[0] > 12 {
		t.Errorf("gap = %v ms, want ~10", dataGaps[0])
	}
}
