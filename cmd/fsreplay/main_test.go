package main

import (
	"maps"
	"testing"

	"repro/internal/core"
	"repro/internal/replay"
	"repro/internal/sim"
)

// TestSaveReplayedKeepsDimensions replays a small study's saved corpus
// and saves it as -out does: loaded back, every replayed machine has the
// category and process names of the machine it replays.
func TestSaveReplayedKeepsDimensions(t *testing.T) {
	s := core.NewStudy(core.Config{Seed: 3, Machines: 4, Duration: 20 * sim.Minute})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	src := t.TempDir()
	if err := s.Save(src); err != nil {
		t.Fatal(err)
	}
	c, err := core.LoadCorpusTrace(src, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := replay.Replay(c.DS, replay.Config{Mode: replay.ModeFast, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	if err := saveReplayed(out, res, c.DS); err != nil {
		t.Fatal(err)
	}
	got, err := core.LoadCorpusTrace(out, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.DS.Machines) != len(c.DS.Machines) {
		t.Fatalf("replayed corpus loads %d machines, source %d", len(got.DS.Machines), len(c.DS.Machines))
	}
	for i, want := range c.DS.Machines {
		mt := got.DS.Machines[i]
		if mt.Name != want.Name || mt.Category != want.Category {
			t.Errorf("machine %d: %s category %v, source %s category %v", i, mt.Name, mt.Category, want.Name, want.Category)
		}
		if len(want.ProcNames) == 0 || !maps.Equal(mt.ProcNames, want.ProcNames) {
			t.Errorf("%s: process names %v, source %v", mt.Name, mt.ProcNames, want.ProcNames)
		}
	}
}
