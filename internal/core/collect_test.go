package core

import (
	"net"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/collect"
	"repro/internal/sim"
)

func collectCfg(seed uint64) Config {
	return Config{
		Seed:            seed,
		Machines:        3,
		Duration:        30 * sim.Minute,
		WithNetwork:     true,
		SnapshotAtStart: true,
		Workers:         2,
	}
}

// TestCollectFaultsStudyByteIdentical is the end-to-end acceptance test:
// a study shipped to a live collection server through injected dial
// refusals and connection cuts must yield, per machine, a byte-identical
// compressed stream to a fault-free local run of the same seed.
func TestCollectFaultsStudyByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("two full study runs; the race-short job covers the wire via internal/collect and internal/agent")
	}
	// Fault-free local baseline.
	baseline := NewStudy(collectCfg(123))
	if err := baseline.Run(); err != nil {
		t.Fatal(err)
	}
	if baseline.Store.TotalRecords() == 0 {
		t.Fatal("baseline produced no records")
	}

	// Live server + deterministic fault schedule on every agent's dialer.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	store := collect.NewStore()
	srv := collect.Serve(ln, store)
	inj := collect.RandomFaults(sim.NewRNG(9), 30, 2, 2_000, 48_000)

	faulted := NewStudy(Config{
		Seed:            123,
		Machines:        3,
		Duration:        30 * sim.Minute,
		WithNetwork:     true,
		SnapshotAtStart: true,
		Workers:         2,
		CollectAddr:     srv.Addr(),
		NetSink: agent.NetSinkConfig{
			SpillSlots:   512,
			BaseBackoff:  time.Millisecond,
			MaxBackoff:   20 * time.Millisecond,
			DrainTimeout: 30 * time.Second,
			Dial:         inj.Dial,
		},
	})
	if err := faulted.Run(); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if err := store.Finalize(); err != nil {
		t.Fatal(err)
	}

	dials, refused, cuts := inj.Counts()
	if refused == 0 && cuts == 0 {
		t.Errorf("fault schedule never fired (dials=%d)", dials)
	}
	ns := faulted.NetStats()
	if ns.Lost != 0 {
		t.Fatalf("lost %d records with a roomy spill ring", ns.Lost)
	}
	if ns.Reconnects == 0 {
		t.Error("no reconnects despite injected faults")
	}
	if ns.Shipped != uint64(baseline.Store.TotalRecords()) {
		t.Errorf("shipped %d records, baseline generated %d", ns.Shipped, baseline.Store.TotalRecords())
	}

	for _, name := range baseline.Store.Machines() {
		want, err := baseline.Store.StreamSum(name)
		if err != nil {
			t.Fatal(err)
		}
		got, err := store.StreamSum(name)
		if err != nil {
			t.Fatalf("%s missing on server: %v", name, err)
		}
		if got != want {
			t.Errorf("%s: server stream differs from baseline (%d vs %d records)",
				name, store.RecordCount(name), baseline.Store.RecordCount(name))
		}
	}
}

// TestCollectFaultsStudyOverflowAccounted runs the study against a server
// that never becomes reachable with a tiny spill ring: every generated
// record must be accounted for as lost — an exact count, never silence.
func TestCollectFaultsStudyOverflowAccounted(t *testing.T) {
	if testing.Short() {
		t.Skip("two full study runs; the race-short job covers the wire via internal/collect and internal/agent")
	}
	baseline := NewStudy(collectCfg(77))
	if err := baseline.Run(); err != nil {
		t.Fatal(err)
	}

	down := &downDialer{}
	var built builtNodes
	faulted := NewStudy(Config{
		Seed:            77,
		Machines:        3,
		Duration:        30 * sim.Minute,
		WithNetwork:     true,
		SnapshotAtStart: true,
		Workers:         2,
		CollectAddr:     "127.0.0.1:1",
		NetSink: agent.NetSinkConfig{
			SpillSlots:   2,
			BaseBackoff:  time.Millisecond,
			MaxBackoff:   5 * time.Millisecond,
			DrainTimeout: 20 * time.Millisecond,
			Dial:         down.dial,
		},
		Prepare: built.prepare,
	})
	if err := faulted.Run(); err != nil {
		t.Fatal(err)
	}

	ns := faulted.NetStats()
	if ns.Shipped != 0 {
		t.Errorf("shipped %d records to an unreachable server", ns.Shipped)
	}
	if ns.Lost == 0 {
		t.Fatal("no loss reported with the server down the whole run")
	}
	if got, want := ns.Lost, uint64(baseline.Store.TotalRecords()); got != want {
		t.Errorf("lost = %d, want exactly %d (every generated record)", got, want)
	}
	// Per machine: generated == shipped + lost, with names aligned.
	if len(built.nodes) != 3 {
		t.Fatalf("study built %d machines, want 3", len(built.nodes))
	}
	for _, n := range built.nodes {
		st := n.Net.Stats()
		gen := uint64(baseline.Store.RecordCount(n.M.Name))
		if st.Shipped+st.Lost != gen {
			t.Errorf("%s: shipped+lost = %d, generated %d — silent loss",
				n.M.Name, st.Shipped+st.Lost, gen)
		}
	}
}

type downDialer struct{}

func (d *downDialer) dial(string) (net.Conn, error) {
	return nil, &net.OpError{Op: "dial", Net: "tcp", Err: collect.ErrDialRefused}
}
