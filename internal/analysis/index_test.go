package analysis

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/ntos/machine"
	"repro/internal/ntos/types"
	"repro/internal/sim"
	"repro/internal/tracefmt"
)

// mixedTrace builds a stream exercising many event kinds across two
// files, returning the raw (pre-sort) records as well.
func mixedTrace(t *testing.T) (*MachineTrace, []tracefmt.Record) {
	t.Helper()
	b := &recBuilder{}
	b.open(1, `C:\a.txt`, 8192, types.FileCreated)
	b.at(sim.Millisecond).read(1, 0, 4096, false, false)
	b.at(sim.Millisecond).write(1, 0, 4096, 8192)
	b.at(sim.Millisecond).add(tracefmt.Record{Kind: tracefmt.EvQueryDirectory, FileID: 1, Returned: 12})
	b.at(sim.Millisecond).add(tracefmt.Record{Kind: tracefmt.EvPagingRead, FileID: 1, Length: 4096})
	b.at(sim.Millisecond).add(tracefmt.Record{Kind: tracefmt.EvLazyWrite, FileID: tracefmt.PagingObjectIDBase + 1, Length: 4096})
	b.at(sim.Millisecond).closeSeq(1)
	b.at(sim.Millisecond).open(2, `C:\b.tmp`, 0, types.FileCreated)
	b.at(sim.Millisecond).read(2, 0, 1024, true, true)
	b.at(sim.Millisecond).add(tracefmt.Record{Kind: tracefmt.EvSetDisposition, FileID: 2})
	b.at(sim.Millisecond).closeSeq(2)
	b.at(sim.Millisecond).openFail(3, `C:\gone.txt`, types.StatusObjectNameNotFound)
	raw := make([]tracefmt.Record, len(b.recs))
	copy(raw, b.recs)
	return b.trace(t), raw
}

func TestIndexSelectMatchesFullScan(t *testing.T) {
	mt, _ := mixedTrace(t)
	sets := [][]tracefmt.EventKind{
		{tracefmt.EvRead, tracefmt.EvFastRead},
		{tracefmt.EvCreate, tracefmt.EvWrite, tracefmt.EvFastWrite,
			tracefmt.EvSetDisposition, tracefmt.EvCleanup, tracefmt.EvClose},
		{tracefmt.EvQueryDirectory},
		{tracefmt.EvPagingRead, tracefmt.EvPagingWrite, tracefmt.EvReadAhead, tracefmt.EvLazyWrite},
		{tracefmt.EvMountVolume}, // absent kind
	}
	rows := mustRows(t, mt)
	for _, kinds := range sets {
		want := []int32{}
		for i := range rows {
			for _, k := range kinds {
				if rows[i].Kind == k {
					want = append(want, int32(i))
					break
				}
			}
		}
		got := mt.Index().Select(kinds...)
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Select(%v) = %v, want %v", kinds, got, want)
		}
	}
}

func TestIndexOpenTimesAscending(t *testing.T) {
	mt, _ := mixedTrace(t)
	ts := mt.Index().OpenTimes()
	wantN := 0
	rows := mustRows(t, mt)
	for i := range rows {
		if IsOpenAttempt(&rows[i]) {
			wantN++
		}
	}
	if len(ts) != wantN {
		t.Fatalf("OpenTimes has %d entries, want %d", len(ts), wantN)
	}
	for i := 1; i < len(ts); i++ {
		if ts[i] < ts[i-1] {
			t.Fatalf("OpenTimes not ascending at %d", i)
		}
	}
}

func TestNewMachineTraceDoesNotMutateCaller(t *testing.T) {
	_, raw := mixedTrace(t)
	// Reverse into "caller order" to make any in-place sort visible.
	recs := make([]tracefmt.Record, len(raw))
	for i := range raw {
		recs[i] = raw[len(raw)-1-i]
	}
	before := make([]tracefmt.Record, len(recs))
	copy(before, recs)

	mt := NewMachineTrace("m", machine.Personal, recs)
	rows := mustRows(t, mt)
	if !reflect.DeepEqual(recs, before) {
		t.Fatal("NewMachineTrace or Rows mutated the caller's slice")
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Start < rows[i-1].Start {
			t.Fatalf("trace records not sorted at %d", i)
		}
	}
}

func TestUnsortedMultiVolumeRecordsYieldIdenticalInstances(t *testing.T) {
	// Two "volumes" of one machine interleave at flush granularity: feed
	// the same records in sorted and in volume-concatenated order and the
	// derived state must match exactly.
	mt, raw := mixedTrace(t)
	// Deal alternating timestamp groups to the two volumes (a volume's
	// buffer holds its own records in time order; equal-time records
	// always share a buffer).
	var vol1, vol2 []tracefmt.Record
	group := 0
	for i := range raw {
		if i > 0 && raw[i].Start != raw[i-1].Start {
			group++
		}
		if group%2 == 0 {
			vol1 = append(vol1, raw[i])
		} else {
			vol2 = append(vol2, raw[i])
		}
	}
	shuffled := append(append([]tracefmt.Record{}, vol2...), vol1...)
	mt2 := NewMachineTrace("test", machine.Personal, shuffled)

	if !reflect.DeepEqual(mustRows(t, mt), mustRows(t, mt2)) {
		t.Fatal("sorted record views differ")
	}
	a, b := mt.Instances(), mt2.Instances()
	if len(a) != len(b) {
		t.Fatalf("instance counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Errorf("instance %d differs:\n%+v\nvs\n%+v", i, a[i], b[i])
		}
	}
}

// TestConcurrentFigureComputation drives every index- and instance-based
// measure from many goroutines at once; under -race this pins that the
// lazily built derived state is safe for concurrent first use.
func TestConcurrentFigureComputation(t *testing.T) {
	mt, _ := mixedTrace(t)
	ds := &DataSet{Machines: []*MachineTrace{mt}}

	type outputs struct {
		ins   int
		lt    LifetimeStats
		rs    float64
		gaps  []float64
		burst PagingBurst
		dirs  DirOpStats
		row   ActivityRow
	}
	run := func() outputs {
		var o outputs
		o.ins = len(mt.Instances())
		o.lt = Lifetimes(mt)
		o.rs, _ = FastIOShares(mt)
		o.gaps = AllOpenGaps(mt)
		o.burst = PagingBursts(mt)
		o.dirs = DirectoryThroughput(mt)
		o.row = UserActivity(ds, sim.Second, 0)
		return o
	}

	const workers = 8
	got := make([]outputs, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = run()
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if !reflect.DeepEqual(got[w], got[0]) {
			t.Errorf("worker %d saw different results", w)
		}
	}
}
