package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
)

// pins.json holds the expected outputs of the pinned seeds, written by
//
//	bash perfbench/run.sh -pin-seeds 1-32 > perfbench/pins.json.new
//
// from one pipeline and one analysis pass per seed: the masked report
// digest of each (the report a pipeline renders from its own data set and
// the one a pass renders from the saved corpus differ, so each workload
// has its own) and the first 64 bits of every machine's
// collect.Store.StreamSum. A later change that
// alters the simulator's or the report's output the same way on every run
// fails these checks; a change meant to alter them must regenerate the
// file. Seeds outside the file are checked within the run only.
//
//go:embed pins.json
var pinsJSON []byte

type seedPins struct {
	Reports map[string]string `json:"report_sha256_masked"` // by workload
	Streams map[string]string `json:"stream_sum_prefix"`
}

type pinFile struct {
	Machines   int                 `json:"machines"`
	SimMinutes int                 `json:"sim_minutes"`
	Seeds      map[string]seedPins `json:"seeds"`
}

// streamPrefix is how much of a StreamSum the pins keep, in hex digits.
const streamPrefix = 16

// pinsFor returns the pinned outputs of seed, or nil when the seed is not
// pinned. A file made for other workload parameters is an error: its
// digests would not apply.
func pinsFor(seed uint64) (*seedPins, error) {
	var f pinFile
	if err := json.Unmarshal(pinsJSON, &f); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	if len(f.Seeds) == 0 {
		return nil, nil
	}
	if f.Machines != fleetMachines || f.SimMinutes != simMinutes {
		return nil, fmt.Errorf("pins.json is for %d machines × %d min, the workloads use %d × %d: regenerate it",
			f.Machines, f.SimMinutes, fleetMachines, simMinutes)
	}
	p, ok := f.Seeds[strconv.FormatUint(seed, 10)]
	if !ok {
		return nil, nil
	}
	return &p, nil
}

// checkStreamPins compares every machine's stream digest with the pins.
func (r *run) checkStreamPins(p *seedPins, sums map[string]string) {
	if p == nil {
		return
	}
	r.check(len(sums) == len(p.Streams), "collected %d machines, pins have %d", len(sums), len(p.Streams))
	for m, sum := range sums {
		want := p.Streams[m]
		r.check(len(sum) >= streamPrefix && sum[:streamPrefix] == want,
			"machine %s stream digest %.16s, pinned %s", m, sum, want)
	}
}

// writePins runs one untimed pipeline and one analysis pass of its saved
// corpus per seed and prints the pin file.
func writePins(seedList []uint64) error {
	f := pinFile{Machines: fleetMachines, SimMinutes: simMinutes, Seeds: map[string]seedPins{}}
	for _, seed := range seedList {
		cwd, err := os.Getwd()
		if err != nil {
			return err
		}
		r := newRun(cwd, "pin", seed, 0, false)
		if err := os.MkdirAll(r.work, 0o755); err != nil {
			return err
		}
		st := &reproduceState{}
		freshHeap()
		_, err = reproduceOnce(r, st, nil)
		an := &analyzeState{want: st.segs}
		if err == nil {
			freshHeap()
			_, err = analyzeOnce(r, filepath.Join(r.work, "corpus"), an, nil)
		}
		os.RemoveAll(r.work)
		if err != nil {
			return err
		}
		if r.failed > 0 {
			return fmt.Errorf("seed %d: %d checks failed: %v", seed, r.failed, r.problems)
		}
		p := seedPins{
			Reports: map[string]string{"reproduce": st.report.digest, "analyze": an.report.digest},
			Streams: map[string]string{},
		}
		for m, sum := range st.sums {
			p.Streams[m] = sum[:streamPrefix]
		}
		f.Seeds[strconv.FormatUint(seed, 10)] = p
		fmt.Fprintf(os.Stderr, "perfbench: pinned seed %d\n", seed)
	}
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}
