package fleet

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/collect"
	"repro/internal/ntos/types"
	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/tracefmt"
)

// addFakeShard registers a synthetic machine: a repeating event that
// emits deterministic records through the engine's Sink, seeded per
// machine so every shard's stream is distinct.
func addFakeShard(t testing.TB, e *Engine, idx int, name string, rng *sim.RNG) {
	t.Helper()
	sched := sim.NewScheduler()
	var tick func(*sim.Scheduler)
	tick = func(s *sim.Scheduler) {
		recs := make([]tracefmt.Record, 1+rng.Intn(4))
		for i := range recs {
			recs[i] = tracefmt.Record{
				Kind:   tracefmt.EvRead,
				FileID: types.FileObjectID(rng.Int63n(1 << 30)),
				Proc:   uint32(idx),
				Start:  s.Now(),
				End:    s.Now().Add(sim.Microsecond),
			}
		}
		e.TraceBuffer(name, recs)
		s.After(sim.Duration(1+rng.Int63n(int64(sim.Minute))), tick)
	}
	sched.At(0, tick)
	err := e.Add(Spec{Index: idx, Name: name, Fingerprint: "fp-" + name}, sched, Hooks{
		Finish: func() {
			snap, err := snapshot.New(name, "", sched.Now(), nil)
			if err != nil {
				t.Error(err)
				return
			}
			e.Snapshot(snap)
		},
		ProcNames: func() map[uint32]string {
			return map[uint32]string{uint32(idx): name + ".exe"}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
}

// runFleet builds and runs a synthetic fleet, returning per-machine
// stream sums.
func runFleet(t testing.TB, machines, workers int, dir string) map[string][32]byte {
	t.Helper()
	store := collect.NewStore()
	e := New(Config{Duration: sim.Hour, Workers: workers, CheckpointDir: dir}, store)
	rngs := sim.NewRNG(99).Split(machines)
	for i := 0; i < machines; i++ {
		addFakeShard(t, e, i, fmt.Sprintf("m%02d", i), rngs[i])
	}
	if err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	sums := map[string][32]byte{}
	for i := 0; i < machines; i++ {
		name := fmt.Sprintf("m%02d", i)
		sum, err := store.StreamSum(name)
		if err != nil {
			t.Fatalf("StreamSum(%s): %v", name, err)
		}
		sums[name] = sum
	}
	return sums
}

func TestWorkerCountInvariance(t *testing.T) {
	base := runFleet(t, 6, 1, "")
	for _, workers := range []int{2, 4, 8} {
		got := runFleet(t, 6, workers, "")
		for name, want := range base {
			if got[name] != want {
				t.Errorf("workers=%d: stream %s differs from sequential run", workers, name)
			}
		}
	}
}

func TestCheckpointRestore(t *testing.T) {
	dir := t.TempDir()
	base := runFleet(t, 4, 2, dir)

	// A fresh engine restores every shard without running anything, and
	// serves each one's records, process names and walks.
	store := collect.NewStore()
	e := New(Config{Duration: sim.Hour, Workers: 2, CheckpointDir: dir}, store)
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("m%02d", i)
		if !e.Restore(Spec{Index: i, Name: name, Fingerprint: "fp-" + name}) {
			t.Fatalf("Restore(%s) failed", name)
		}
		sh := e.Status().Shards[i]
		walks := e.Snapshots()
		if sh.Name != name || sh.Records == 0 || e.ProcNames(name)[uint32(i)] != name+".exe" ||
			len(walks) != i+1 || walks[i].Machine != name {
			t.Errorf("Restore(%s): status %+v, process names %v, %d walks", name, sh, e.ProcNames(name), len(walks))
		}
	}
	if err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	for name, want := range base {
		sum, err := store.StreamSum(name)
		if err != nil {
			t.Fatal(err)
		}
		if sum != want {
			t.Errorf("restored stream %s differs from original", name)
		}
	}
	st := e.Status()
	if st.Restored != 4 || st.Done != 0 {
		t.Errorf("status after restore-only run: %+v", st)
	}
}

func TestRestoreRejectsFingerprintMismatch(t *testing.T) {
	dir := t.TempDir()
	runFleet(t, 1, 1, dir)
	e := New(Config{Duration: sim.Hour, CheckpointDir: dir}, collect.NewStore())
	if e.Restore(Spec{Index: 0, Name: "m00", Fingerprint: "other-config"}) {
		t.Error("restore accepted a checkpoint from a different configuration")
	}
}

// TestRestoreRejectsCorruptCheckpoint pins that a malformed checkpoint
// is not restored, so its machine re-runs: a truncated file, one with a
// section after the snapshots, which checkpoints carried while they
// could hold a columnar segment, and one whose snapshot passes its CRC
// and header checks but holds a bad record.
func TestRestoreRejectsCorruptCheckpoint(t *testing.T) {
	dir := t.TempDir()
	want := runFleet(t, 1, 1, dir)
	path := filepath.Join(dir, "m00.ckpt")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	trailing := binary.LittleEndian.AppendUint64(slices.Clone(data), 4)
	trailing = append(trailing, "FSC1"...)
	for name, bad := range map[string][]byte{
		"truncated":           data[:len(data)/2],
		"trailing section":    trailing,
		"bad snapshot record": withSnapshot(t, data, badRecordSnapshot(t)),
	} {
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		store := collect.NewStore()
		e := New(Config{Duration: sim.Hour, CheckpointDir: dir}, store)
		if e.Restore(Spec{Index: 0, Name: "m00", Fingerprint: "fp-m00"}) {
			t.Errorf("%s: restore accepted the checkpoint", name)
		}
		if _, err := store.StreamSum("m00"); !errors.Is(err, collect.ErrNoRecords) {
			t.Errorf("%s: rejected checkpoint left a stream in the store (%v)", name, err)
		}
	}
	// The machine re-runs and checkpoints the stream it had before.
	if got := runFleet(t, 1, 1, dir); got["m00"] != want["m00"] {
		t.Error("re-run after a rejected checkpoint collected a different stream")
	}
	if _, err := loadCheckpoint(path, "fp-m00"); err != nil {
		t.Errorf("re-run left no valid checkpoint: %v", err)
	}
}

// withSnapshot returns the checkpoint ckpt with its snapshots replaced
// by the one encoded snapshot snap.
func withSnapshot(t testing.TB, ckpt, snap []byte) []byte {
	t.Helper()
	le := binary.LittleEndian
	off := len(ckptMagic) + 4 + int(le.Uint32(ckpt[len(ckptMagic):]))
	off += 8 + int(le.Uint64(ckpt[off:]))
	out := le.AppendUint32(slices.Clone(ckpt[:off]), 1)
	return append(le.AppendUint64(out, uint64(len(snap))), snap...)
}

// badRecordSnapshot encodes a two-record walk, then sets an unknown flag
// bit on its last record and seals the CRC again: the file passes
// snapshot.Decode, and its records fail.
func badRecordSnapshot(t testing.TB) []byte {
	t.Helper()
	var b bytes.Buffer
	walk := []snapshot.WalkRecord{{IsDir: true, NumFiles: 1}, {Name: "x", Depth: 1}}
	snap, err := snapshot.New("m00", `C:`, 0, walk)
	if err == nil {
		err = snap.Write(&b)
	}
	if err != nil {
		t.Fatal(err)
	}
	bad := b.Bytes()
	// The file record is depth, flags, size, three times, name length
	// and "x", one byte each, just before the CRC.
	bad[len(bad)-4-7] = 2
	binary.LittleEndian.PutUint32(bad[len(bad)-4:], crc32.ChecksumIEEE(bad[:len(bad)-4]))
	s, err := snapshot.Decode(bad)
	if err != nil {
		t.Fatalf("the bad-record snapshot fails its header checks: %v", err)
	}
	if err := s.Each(func(*snapshot.WalkRecord) {}); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("the bad-record snapshot streams with err = %v, want ErrCorrupt", err)
	}
	return bad
}

// FuzzLoadCheckpoint feeds the checkpoint parser arbitrary bytes, seeded
// with a real checkpoint, the same checkpoint with a trailing section, a
// header that claims 256 MiB, 5,000 two-byte snapshot sections holding
// "{}", the legacy JSON form that snapshot.Decode refuses, and the real
// checkpoint with a snapshot whose one bad record only a pass over the
// records finds.
// Every input must be rejected or parsed, never panic, and never make
// the parser allocate far beyond the input's own size.
func FuzzLoadCheckpoint(f *testing.F) {
	dir := f.TempDir()
	runFleet(f, 1, 1, dir)
	ckpt, err := os.ReadFile(filepath.Join(dir, "m00.ckpt"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(ckpt)
	f.Add(append(binary.LittleEndian.AppendUint64(slices.Clone(ckpt), 4), "FSC1"...))
	f.Add(binary.LittleEndian.AppendUint32([]byte(ckptMagic), 256<<20))
	head := ckpt[:len(ckptMagic)+4+int(binary.LittleEndian.Uint32(ckpt[len(ckptMagic):]))]
	tiny := binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint64(slices.Clone(head), 0), 5000)
	for i := 0; i < 5000; i++ {
		tiny = append(binary.LittleEndian.AppendUint64(tiny, 2), "{}"...)
	}
	f.Add(tiny)
	f.Add(withSnapshot(f, ckpt, badRecordSnapshot(f)))
	f.Fuzz(func(t *testing.T, in []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ck, err := parseCheckpoint(in, "fp-m00")
		runtime.ReadMemStats(&after)
		// Each part of the input is bounded on its own, and no input
		// byte belongs to two: a snapshot section is copied once and
		// its records stream within 16 bytes per byte (FuzzSnapshotRead's
		// bound), the stream is copied once, and the header's copy and
		// JSON decode stay under 10 bytes per byte (a proc_names map of
		// short keys comes to about 8). So 18 bytes per input byte bound
		// the whole parse.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 18*uint64(len(in))+1<<20 {
			t.Fatalf("parse of %d bytes allocated %d bytes", len(in), grew)
		}
		if (err == nil) == (ck == nil) {
			t.Fatalf("parse returned checkpoint %v with error %v", ck != nil, err)
		}
	})
}

func TestDuplicateShardName(t *testing.T) {
	e := New(Config{Duration: sim.Hour}, collect.NewStore())
	if err := e.Add(Spec{Index: 0, Name: "dup"}, sim.NewScheduler(), Hooks{}); err != nil {
		t.Fatal(err)
	}
	if err := e.Add(Spec{Index: 1, Name: "dup"}, sim.NewScheduler(), Hooks{}); err == nil {
		t.Error("duplicate shard name accepted")
	}
}

func TestCancellationLeavesShardsResumable(t *testing.T) {
	store := collect.NewStore()
	e := New(Config{Duration: 1000 * sim.Hour, Slice: sim.Minute}, store)
	rngs := sim.NewRNG(3).Split(2)
	for i := 0; i < 2; i++ {
		addFakeShard(t, e, i, fmt.Sprintf("m%02d", i), rngs[i])
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := e.Run(ctx); err != context.Canceled {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
	st := e.Status()
	if st.Done != 0 || st.Pending != 2 {
		t.Errorf("status after cancel: %+v", st)
	}
}

func TestStatusProgress(t *testing.T) {
	store := collect.NewStore()
	e := New(Config{Duration: sim.Hour}, store)
	rngs := sim.NewRNG(7).Split(3)
	for i := 0; i < 3; i++ {
		addFakeShard(t, e, i, fmt.Sprintf("m%02d", i), rngs[i])
	}
	before := e.Status()
	if before.Pending != 3 || before.Records != 0 {
		t.Errorf("pre-run status: %+v", before)
	}
	if err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := e.Status()
	if st.Done != 3 || st.Pending != 0 || st.MaxLag != 0 {
		t.Errorf("post-run status: %+v", st)
	}
	if st.Records == 0 || st.Events == 0 || st.EventsPerSec <= 0 || st.SimRatio <= 0 {
		t.Errorf("throughput counters: %+v", st)
	}
	if st.Records != int64(store.TotalRecords()) {
		t.Errorf("status records %d != store %d", st.Records, store.TotalRecords())
	}
	line := st.String()
	if !strings.Contains(line, "3/3 done") {
		t.Errorf("summary line %q", line)
	}
	// Shards are reported in index order regardless of completion order.
	for i, sh := range st.Shards {
		if want := fmt.Sprintf("m%02d", i); sh.Name != want {
			t.Errorf("shard %d = %s, want %s", i, sh.Name, want)
		}
	}
}

func TestSnapshotsMergeInMachineOrder(t *testing.T) {
	e := New(Config{Duration: sim.Hour, Workers: 4}, collect.NewStore())
	rngs := sim.NewRNG(11).Split(5)
	for i := 0; i < 5; i++ {
		addFakeShard(t, e, i, fmt.Sprintf("m%02d", i), rngs[i])
	}
	if err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	snaps := e.Snapshots()
	if len(snaps) != 5 {
		t.Fatalf("%d snapshots, want 5", len(snaps))
	}
	for i, snap := range snaps {
		if want := fmt.Sprintf("m%02d", i); snap.Machine != want {
			t.Errorf("snapshot %d from %s, want %s", i, snap.Machine, want)
		}
	}
	if e.ProcNames("m03") == nil {
		t.Error("ProcNames(m03) lost")
	}
}

func TestRemoteModeSkipsCheckpoints(t *testing.T) {
	dir := t.TempDir()
	store := collect.NewStore()
	e := New(Config{Duration: sim.Hour, Workers: 2, CheckpointDir: dir, Remote: true}, store)
	rngs := sim.NewRNG(5).Split(2)
	for i := 0; i < 2; i++ {
		addFakeShard(t, e, i, fmt.Sprintf("m%02d", i), rngs[i])
	}
	if err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Remote mode: no local finalize, no checkpoints, no restore.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("remote run wrote %d checkpoint files", len(entries))
	}
	if e.Restore(Spec{Index: 0, Name: "m00", Fingerprint: "fp-m00"}) {
		t.Error("Restore succeeded in remote mode")
	}
	if st := e.Status(); st.Done != 2 {
		t.Errorf("status after remote run: %+v", st)
	}
}

func TestCloseHookErrorFailsShard(t *testing.T) {
	e := New(Config{Duration: sim.Minute}, collect.NewStore())
	sched := sim.NewScheduler()
	closeErr := fmt.Errorf("sink drain failed")
	err := e.Add(Spec{Index: 0, Name: "m00", Fingerprint: "fp"}, sched, Hooks{
		Close: func() error { return closeErr },
	})
	if err != nil {
		t.Fatal(err)
	}
	runErr := e.Run(context.Background())
	if runErr == nil || !strings.Contains(runErr.Error(), "close") {
		t.Fatalf("Run = %v, want close-hook failure", runErr)
	}
	if !errors.Is(runErr, closeErr) {
		t.Errorf("close cause not wrapped: %v", runErr)
	}
}

// addHookShard registers an eventless shard with the given hooks.
func addHookShard(t *testing.T, e *Engine, idx int, hooks Hooks) {
	t.Helper()
	if err := e.Add(Spec{Index: idx, Name: fmt.Sprintf("m%02d", idx), Fingerprint: "fp"}, sim.NewScheduler(), hooks); err != nil {
		t.Fatal(err)
	}
}

// TestRunReturnsFirstErrorInQueueOrder fails shards 1 and 3 in their
// Close hooks: at one worker and at four, Run returns shard 1's error. At
// four workers both failing shards start before either fails (their
// Start hooks wait for each other), so queue order decides, not which
// failure lands first.
func TestRunReturnsFirstErrorInQueueOrder(t *testing.T) {
	for _, workers := range []int{1, 4} {
		e := New(Config{Duration: sim.Minute, Workers: workers}, collect.NewStore())
		var met sync.WaitGroup
		met.Add(2)
		for i := 0; i < 4; i++ {
			var hooks Hooks
			if i == 1 || i == 3 {
				err := fmt.Errorf("shard %d failed", i)
				hooks.Close = func() error { return err }
				if workers > 1 {
					hooks.Start = func() { met.Done(); met.Wait() }
				}
			}
			addHookShard(t, e, i, hooks)
		}
		if err := e.Run(context.Background()); err == nil || !strings.Contains(err.Error(), "shard 1 failed") {
			t.Errorf("workers=%d: Run = %v, want shard 1's error", workers, err)
		}
	}
}

// TestRunStartsNoShardAfterFailure fails shard 1 at one worker: shard 2
// never starts and stays pending, so a resume runs it.
func TestRunStartsNoShardAfterFailure(t *testing.T) {
	e := New(Config{Duration: sim.Minute, Workers: 1}, collect.NewStore())
	var started [3]bool
	for i := range started {
		hooks := Hooks{Start: func() { started[i] = true }}
		if i == 1 {
			hooks.Close = func() error { return errors.New("drain failed") }
		}
		addHookShard(t, e, i, hooks)
	}
	if err := e.Run(context.Background()); err == nil {
		t.Fatal("Run succeeded with a failing shard")
	}
	if st := e.Status(); started[2] || st.Done != 1 || st.Failed != 1 || st.Pending != 1 {
		t.Errorf("after the failure: shard 2 started %v, status %+v", started[2], st)
	}
}

// TestRunShardPanicReachesCaller panics in a shard's Start hook at two
// workers: Run's caller recovers it as a *par.Panic holding the value.
func TestRunShardPanicReachesCaller(t *testing.T) {
	e := New(Config{Duration: sim.Minute, Workers: 2}, collect.NewStore())
	addHookShard(t, e, 0, Hooks{})
	addHookShard(t, e, 1, Hooks{Start: func() { panic("start hook") }})
	defer func() {
		if p, ok := recover().(*par.Panic); !ok || p.Value != "start hook" {
			t.Errorf("recovered %v, want a *par.Panic with value \"start hook\"", p)
		}
	}()
	e.Run(context.Background())
	t.Error("Run returned after a shard panicked")
}

// TestStatusRateOverRunWallTime pins the fleet rates to the run's wall
// span, not the sum of the shards' wall times: four shards that ran side
// by side for one second report their events over one second, and two
// that ran one after the other over the two seconds they took.
func TestStatusRateOverRunWallTime(t *testing.T) {
	for _, tc := range []struct {
		name   string
		starts []int64 // seconds; each shard runs one second
		wall   float64
	}{
		{"side by side", []int64{5, 5, 5, 5}, 1},
		{"one after the other", []int64{5, 6}, 2},
	} {
		e := New(Config{Duration: sim.Hour}, collect.NewStore())
		for i, start := range tc.starts {
			sh := &shard{spec: Spec{Index: i, Name: fmt.Sprintf("m%02d", i)}}
			e.newShardGauges(sh)
			if err := e.register(sh); err != nil {
				t.Fatal(err)
			}
			sh.state.Store(stateDone)
			sh.started.Set(start * 1e9)
			sh.ended.Set((start + 1) * 1e9)
			sh.events.Set(1000)
			sh.simNow.Set(int64(sim.Hour))
		}
		st := e.Status()
		n := float64(len(tc.starts))
		if want := 1000 * n / tc.wall; st.EventsPerSec != want {
			t.Errorf("%s: EventsPerSec = %v, want %v", tc.name, st.EventsPerSec, want)
		}
		if want := sim.Hour.Seconds() * n / tc.wall; st.SimRatio != want {
			t.Errorf("%s: SimRatio = %v, want %v", tc.name, st.SimRatio, want)
		}
	}
}
