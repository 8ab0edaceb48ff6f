package tracedrv_test

import (
	"testing"

	"repro/internal/ntos/machine"
	"repro/internal/ntos/types"
	"repro/internal/ntos/volume"
	"repro/internal/sim"
	"repro/internal/tracedrv"
	"repro/internal/tracefmt"
)

// TestMachineStopReleasesBuffers checks that Machine.Stop ships every
// record its trace driver buffered and then leaves it holding no buffer,
// and that a Mark made after the stop still lands and ships.
func TestMachineStopReleasesBuffers(t *testing.T) {
	var shipped []tracefmt.Record
	sched := sim.NewScheduler()
	m := machine.New(sched, sim.NewRNG(1), machine.Config{
		Name: "m", Category: machine.Personal,
		TraceFlush: func(recs []tracefmt.Record) { shipped = append(shipped, recs...) },
	})
	m.AddVolume(`C:`, volume.IDE1998, volume.FlavorNTFS, false)
	m.Start()
	pid := m.SpawnPID()
	h, st := m.IO.CreateFile(pid, `C:\a.txt`, types.AccessWrite, types.DispositionCreate, 0, 0)
	if st.IsError() {
		t.Fatalf("create: %v", st)
	}
	m.IO.CloseHandle(pid, h)
	d := m.Volumes[0].Trace
	if n := tracedrv.HeldBuffers(d); n != 1 {
		t.Fatalf("running driver holds %d buffers, want 1", n)
	}

	m.Stop()
	sched.RunUntil(sched.Now().Add(sim.Second))
	if n := tracedrv.HeldBuffers(d); n != 0 {
		t.Errorf("stopped driver holds %d buffers", n)
	}
	if uint64(len(shipped)) != d.Stats.Records || shipped[len(shipped)-1].Kind != tracefmt.EvAgentStop {
		t.Fatalf("shipped %d of %d records by the stop, the last not the stop mark", len(shipped), d.Stats.Records)
	}

	d.Mark(tracefmt.EvSnapshotStart)
	d.Flush()
	sched.RunUntil(sched.Now().Add(sim.Second))
	if uint64(len(shipped)) != d.Stats.Records || shipped[len(shipped)-1].Kind != tracefmt.EvSnapshotStart {
		t.Errorf("a mark after the stop: shipped %d of %d records, last %v", len(shipped), d.Stats.Records, shipped[len(shipped)-1].Kind)
	}
}
