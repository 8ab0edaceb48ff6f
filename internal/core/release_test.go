package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ntos/fsys"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/sim"
)

// builtNodes records, through Config.Prepare, every machine a study
// builds. Prepare runs on the shards' goroutines, so it locks.
type builtNodes struct {
	mu    sync.Mutex
	nodes []*Node
}

func (b *builtNodes) prepare(n *Node) {
	b.mu.Lock()
	b.nodes = append(b.nodes, n)
	b.mu.Unlock()
}

// TestRunReleasesMachines pins what a finished machine leaves behind: its
// stream, walks and process names, not its apparatus. Prepare puts a
// finalizer on every volume's file tree (an *fsys.FS, which no cycle
// reaches), and after Run, with the study still reachable, a bounded
// number of collections must run every one of them, at any worker count
// and with observation on or off.
func TestRunReleasesMachines(t *testing.T) {
	for _, workers := range []int{1, 3} {
		for _, observed := range []bool{false, true} {
			t.Run(fmt.Sprintf("workers=%d/observed=%t", workers, observed), func(t *testing.T) {
				cfg := Config{
					Seed: 29, Machines: 4, Duration: 10 * sim.Minute,
					WithNetwork: true, SnapshotAtStart: true, Workers: workers,
				}
				if observed {
					cfg.Obs = obs.NewRegistry()
					cfg.Trace = trace.New(trace.Config{})
				}
				var volumes atomic.Int32
				freed := make(chan struct{}, 16)
				cfg.Prepare = func(n *Node) {
					for _, v := range n.M.Volumes {
						volumes.Add(1)
						runtime.SetFinalizer(v.FS, func(*fsys.FS) { freed <- struct{}{} })
					}
				}
				s := NewStudy(cfg)
				if err := s.Run(); err != nil {
					t.Fatal(err)
				}
				want := int(volumes.Load())
				if want != 2*cfg.Machines {
					t.Fatalf("Prepare saw %d volumes, want %d", want, 2*cfg.Machines)
				}
				got := 0
				for round := 0; got < want && round < 20; round++ {
					runtime.GC()
					for waiting := true; waiting && got < want; {
						select {
						case <-freed:
							got++
						case <-time.After(20 * time.Millisecond):
							waiting = false
						}
					}
				}
				if got != want {
					t.Errorf("%d of %d file trees collected after Run: a finished machine is still reachable", got, want)
				}
				if s.TotalEvents() == 0 || len(s.Snapshots) == 0 {
					t.Errorf("study kept %d records and %d walks", s.TotalEvents(), len(s.Snapshots))
				}
				runtime.KeepAlive(s)
			})
		}
	}
}
