package tracedrv

import (
	"testing"

	"repro/internal/ntos/irp"
	"repro/internal/ntos/types"
	"repro/internal/sim"
	"repro/internal/tracefmt"
)

// stubFS is a terminal driver with controllable behaviour.
type stubFS struct {
	sched   *sim.Scheduler
	latency sim.Duration
	fastOK  bool
}

func (s *stubFS) DriverName() string { return "stubfs" }

func (s *stubFS) Dispatch(rq *irp.Request) {
	s.sched.Advance(s.latency)
	rq.Status = types.StatusSuccess
	rq.Information = int64(rq.Length)
}

func (s *stubFS) FastIo(call types.FastIoCall, rq *irp.Request) bool {
	if !s.fastOK {
		return false
	}
	s.sched.Advance(s.latency / 4)
	rq.Status = types.StatusSuccess
	return true
}

func newTraced(t *testing.T) (*Driver, *stubFS, *[]tracefmt.Record, *sim.Scheduler) {
	t.Helper()
	sched := sim.NewScheduler()
	fs := &stubFS{sched: sched, latency: sim.FromMicroseconds(100), fastOK: true}
	out := &[]tracefmt.Record{}
	d := New("trace", fs, sched, func(recs []tracefmt.Record) {
		*out = append(*out, recs...)
	})
	d.ShipLatency = 0
	return d, fs, out, sched
}

func fo(id uint64, path string) *types.FileObject {
	return &types.FileObject{ID: types.FileObjectID(id), Path: path}
}

func TestTimestampsBracketServiceTime(t *testing.T) {
	d, _, out, sched := newTraced(t)
	rq := &irp.Request{Major: types.IrpMjRead, FileObject: fo(1, `C:\x`), Length: 4096}
	d.Dispatch(rq)
	d.Flush()
	sched.Run()
	if len(*out) != 2 { // name map + read
		t.Fatalf("records = %d", len(*out))
	}
	read := (*out)[1]
	if read.Kind != tracefmt.EvRead {
		t.Fatalf("kind = %v", read.Kind)
	}
	if got := read.Latency(); got < sim.FromMicroseconds(100) {
		t.Errorf("latency = %v, want >= 100µs service time", got)
	}
}

func TestNameMapOncePerFileObject(t *testing.T) {
	d, _, out, sched := newTraced(t)
	f := fo(7, `C:\repeat`)
	for i := 0; i < 5; i++ {
		d.Dispatch(&irp.Request{Major: types.IrpMjRead, FileObject: f, Length: 100})
	}
	d.Flush()
	sched.Run()
	names := 0
	for _, r := range *out {
		if r.Kind == tracefmt.EvNameMap {
			names++
			if r.NameString() != `C:\repeat` {
				t.Errorf("name = %q", r.NameString())
			}
		}
	}
	if names != 1 {
		t.Errorf("name maps = %d, want 1", names)
	}
	if d.Stats.NameMaps != 1 {
		t.Errorf("Stats.NameMaps = %d", d.Stats.NameMaps)
	}
}

func TestPagingFileObjectsGetHighIDs(t *testing.T) {
	d, _, out, sched := newTraced(t)
	f := &types.FileObject{Path: `C:\paged`} // ID 0: cache-manager FO
	d.Dispatch(&irp.Request{Major: types.IrpMjRead, Flags: types.IrpPaging,
		FileObject: f, Length: 4096})
	d.Flush()
	sched.Run()
	if f.ID < tracefmt.PagingObjectIDBase {
		t.Errorf("paging FO id = %d, want >= base", f.ID)
	}
	if (*out)[1].Kind != tracefmt.EvPagingRead {
		t.Errorf("kind = %v", (*out)[1].Kind)
	}
}

func TestEventKindDerivation(t *testing.T) {
	cases := []struct {
		rq   irp.Request
		want tracefmt.EventKind
	}{
		{irp.Request{Major: types.IrpMjCreate}, tracefmt.EvCreate},
		{irp.Request{Major: types.IrpMjCreate, Status: types.StatusObjectNameNotFound}, tracefmt.EvCreateFailed},
		{irp.Request{Major: types.IrpMjRead, Flags: types.IrpPaging, ReadAhead: true}, tracefmt.EvReadAhead},
		{irp.Request{Major: types.IrpMjWrite, Flags: types.IrpPaging, LazyWrite: true}, tracefmt.EvLazyWrite},
		{irp.Request{Major: types.IrpMjWrite, Flags: types.IrpPaging}, tracefmt.EvPagingWrite},
		{irp.Request{Major: types.IrpMjSetInformation, InfoClass: types.SetInfoEndOfFile}, tracefmt.EvSetEndOfFile},
		{irp.Request{Major: types.IrpMjSetInformation, InfoClass: types.SetInfoDisposition}, tracefmt.EvSetDisposition},
		{irp.Request{Major: types.IrpMjDirectoryControl, Minor: types.IrpMnQueryDirectory}, tracefmt.EvQueryDirectory},
		{irp.Request{Major: types.IrpMjFileSystemControl, Minor: types.IrpMnUserFsRequest}, tracefmt.EvUserFsRequest},
		{irp.Request{Major: types.IrpMjLockControl, Minor: types.IrpMnLock}, tracefmt.EvLock},
		{irp.Request{Major: types.IrpMjCleanup}, tracefmt.EvCleanup},
		{irp.Request{Major: types.IrpMjClose}, tracefmt.EvClose},
	}
	for _, c := range cases {
		// The status check happens after dispatch; kindForIRP reads the
		// final request state, so pre-set statuses emulate the outcome.
		if got := kindForIRP(&c.rq); got != c.want {
			t.Errorf("kindForIRP(%v/%v) = %v, want %v", c.rq.Major, c.rq.Minor, got, c.want)
		}
	}
	if got := kindForFastIo(types.FastIoWrite); got != tracefmt.EvFastWrite {
		t.Errorf("kindForFastIo = %v", got)
	}
}

func TestFastIoRefusalAnnotated(t *testing.T) {
	d, fs, out, sched := newTraced(t)
	fs.fastOK = false
	ok := d.FastIo(types.FastIoRead, &irp.Request{FileObject: fo(2, `C:\y`), Length: 512})
	if ok {
		t.Fatal("refusal not propagated")
	}
	d.Flush()
	sched.Run()
	last := (*out)[len(*out)-1]
	if last.Kind != tracefmt.EvFastRead || last.Annot&tracefmt.AnnotFastRefused == 0 {
		t.Errorf("refused FastIO record wrong: %+v", last)
	}
}

func TestBufferRotationAtCapacity(t *testing.T) {
	d, _, out, sched := newTraced(t)
	f := fo(3, `C:\bulk`)
	// 1 name map + N reads; cross one buffer boundary.
	for i := 0; i < BufferRecords+10; i++ {
		d.Dispatch(&irp.Request{Major: types.IrpMjRead, FileObject: f, Length: 1})
	}
	sched.Run()
	if d.Stats.BufferFlushes == 0 {
		t.Fatal("no automatic buffer flush at capacity")
	}
	if len(*out) < BufferRecords {
		t.Errorf("delivered records = %d", len(*out))
	}
	if d.Stats.FastestFill == 0 {
		t.Error("fill-time stats not recorded")
	}
}

func TestOverflowWhenShippingStalls(t *testing.T) {
	d, _, _, sched := newTraced(t)
	d.ShipLatency = sim.Hour // deliveries never complete in test horizon
	f := fo(4, `C:\flood`)
	for i := 0; i < NumBuffers*BufferRecords+BufferRecords; i++ {
		d.Dispatch(&irp.Request{Major: types.IrpMjRead, FileObject: f, Length: 1})
	}
	if d.Stats.Overflows == 0 {
		t.Error("no overflow despite stalled shipping")
	}
	_ = sched
}

func TestRemoteAnnotation(t *testing.T) {
	d, _, out, sched := newTraced(t)
	d.Remote = true
	d.Dispatch(&irp.Request{Major: types.IrpMjRead, FileObject: fo(5, `\\fs\u\f`), Length: 1})
	d.Flush()
	sched.Run()
	if (*out)[1].Annot&tracefmt.AnnotRemote == 0 {
		t.Error("remote annotation missing")
	}
}

func TestMarkApparatusEvents(t *testing.T) {
	d, _, out, sched := newTraced(t)
	d.Mark(tracefmt.EvAgentStart)
	d.Mark(tracefmt.EvSnapshotStart)
	d.Mark(tracefmt.EvSnapshotEnd)
	d.Flush()
	sched.Run()
	if len(*out) != 3 || (*out)[0].Kind != tracefmt.EvAgentStart {
		t.Errorf("marks = %+v", *out)
	}
}

// TestBuffersAllocatedOnFirstUse checks that a driver holds only the
// buffers it has stored records in: none before its first record, one
// until the first rotation, two after it.
func TestBuffersAllocatedOnFirstUse(t *testing.T) {
	d, _, out, sched := newTraced(t)
	allocated := func() int {
		n := 0
		for _, b := range d.buffers {
			if b != nil {
				n++
			}
		}
		return n
	}
	if n := allocated(); n != 0 {
		t.Fatalf("new driver holds %d buffers", n)
	}
	f := fo(6, `C:\lazy`)
	d.Dispatch(&irp.Request{Major: types.IrpMjRead, FileObject: f, Length: 1})
	if n := allocated(); n != 1 || cap(d.buffers[0]) != BufferRecords {
		t.Fatalf("after one record: %d buffers, first of capacity %d", n, cap(d.buffers[0]))
	}
	// The first dispatch stored a name map and a read: 2 + (3000-1)
	// records fill the first buffer and leave one in the second.
	for i := 0; i < BufferRecords-1; i++ {
		d.Dispatch(&irp.Request{Major: types.IrpMjRead, FileObject: f, Length: 1})
	}
	sched.Run()
	if n := allocated(); n != 2 || d.Stats.BufferFlushes != 1 {
		t.Fatalf("after one rotation: %d buffers, %d flushes", n, d.Stats.BufferFlushes)
	}
	if len(*out) != BufferRecords || len(d.buffers[1]) != 1 {
		t.Errorf("delivered %d records, %d buffered; want %d and 1", len(*out), len(d.buffers[1]), BufferRecords)
	}
}
