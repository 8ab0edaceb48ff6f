package fleet

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/collect"
	"repro/internal/ntos/types"
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
			e.Snapshot(&snapshot.Snapshot{Machine: name, TakenAt: sched.Now()})
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

	// A fresh engine restores every shard without running anything.
	store := collect.NewStore()
	e := New(Config{Duration: sim.Hour, Workers: 2, CheckpointDir: dir}, store)
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("m%02d", i)
		res, ok := e.Restore(Spec{Index: i, Name: name, Fingerprint: "fp-" + name})
		if !ok {
			t.Fatalf("Restore(%s) failed", name)
		}
		if res.Records == 0 || res.ProcNames[uint32(i)] != name+".exe" || len(res.Snapshots) != 1 {
			t.Errorf("Restore(%s) = %+v", name, res)
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
	if _, ok := e.Restore(Spec{Index: 0, Name: "m00", Fingerprint: "other-config"}); ok {
		t.Error("restore accepted a checkpoint from a different configuration")
	}
}

// TestRestoreRejectsCorruptCheckpoint pins that a malformed checkpoint
// is not restored, so its machine re-runs: a truncated file, and one
// with a section after the snapshots, which checkpoints carried while
// they could hold a columnar segment.
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
		"truncated":        data[:len(data)/2],
		"trailing section": trailing,
	} {
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		store := collect.NewStore()
		e := New(Config{Duration: sim.Hour, CheckpointDir: dir}, store)
		if _, ok := e.Restore(Spec{Index: 0, Name: "m00", Fingerprint: "fp-m00"}); ok {
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

// FuzzLoadCheckpoint feeds the checkpoint parser arbitrary bytes, seeded
// with a real checkpoint, the same checkpoint with a trailing section, a
// header that claims 256 MiB, and 5,000 two-byte legacy JSON snapshots
// (which the JSON decoder would expand ~90-fold). Every input must be
// rejected or parsed, never panic, and never make the parser allocate
// far beyond the input's own size.
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
	f.Fuzz(func(t *testing.T, in []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ck, err := parseCheckpoint(in, "fp-m00")
		runtime.ReadMemStats(&after)
		// Snapshots decode at up to 64 bytes per input byte (their own
		// fuzz bound); the stream and header are copied once.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64*uint64(len(in))+1<<20 {
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
	if _, ok := e.Restore(Spec{Index: 0, Name: "m00", Fingerprint: "fp-m00"}); ok {
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
