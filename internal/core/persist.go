package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/collect"
	"repro/internal/colstore"
	"repro/internal/ntos/machine"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/par"
	"repro/internal/snapshot"
)

// manifest records per-machine dimensions next to the trace store.
type manifest struct {
	Machines []MachineInfo `json:"machines"`
}

// MachineInfo is what a corpus directory's manifest.json keeps of one
// machine: the dimensions its trace stream does not carry.
type MachineInfo struct {
	Name      string            `json:"name"`
	Category  machine.Category  `json:"category"`
	ProcNames map[uint32]string `json:"proc_names,omitempty"`
}

// Save writes the collected corpus as colstore segments (*.fsc), the
// snapshots (*.snap, the binary snapshot format) and the machine
// manifest into dir. The study must have Run.
//
// Segments are encoded and written, and snapshots written as the file
// images the walks encoded, on GOMAXPROCS workers, as LoadCorpusTrace
// reads them; each lands in its own slot, so the directory and the error
// returned (the first in slot order) are those of a serial save.
func (s *Study) Save(dir string) error {
	if !s.ran {
		return fmt.Errorf("core: Save before Run")
	}
	if _, err := s.Store.SaveColumnarDir(dir, colstore.Options{Metrics: s.colMetrics}); err != nil {
		return err
	}
	machines := make([]MachineInfo, len(s.specs))
	for i, sp := range s.specs {
		machines[i] = MachineInfo{Name: sp.name, Category: sp.cat, ProcNames: s.procNames(i)}
	}
	if err := WriteManifest(dir, machines); err != nil {
		return err
	}
	errs := make([]error, len(s.Snapshots))
	par.For(runtime.GOMAXPROCS(0), len(s.Snapshots), func(i int) {
		snap := s.Snapshots[i]
		errs[i] = writeSnapshot(filepath.Join(dir, fmt.Sprintf("%s-%03d.snap", safe(snap.Machine), i)), snap)
	})
	return firstError(errs)
}

// WriteManifest writes dir's manifest.json, from which LoadCorpusTrace
// gives each machine its category and process names. Study.Save writes
// it beside the segments, and so does fsreplay -out, whose replayed
// machines keep the dimensions of the machines they replay.
func WriteManifest(dir string, machines []MachineInfo) error {
	data, err := json.MarshalIndent(manifest{Machines: machines}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "manifest.json"), data, 0o644)
}

// writeSnapshot writes one snapshot's image into a new file at path.
func writeSnapshot(path string, snap *snapshot.Snapshot) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := snap.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func safe(s string) string { return collect.SafeName(s) }

// Corpus is a loaded study directory with every layer kept accessible:
// the analysis DataSet (what the report pipeline consumes), the columnar
// segments (what the pushdown scan engine serves) and the snapshots, each
// held as its checked file bytes until a render streams its records. The
// query service holds one of these for its whole lifetime.
type Corpus struct {
	DS    *analysis.DataSet
	Snaps []*snapshot.Snapshot
	// Segments holds each machine's segment keyed by true machine name.
	Segments map[string]*colstore.Segment
}

// LoadCorpusTrace reads a saved study directory back into an analysis
// corpus, its segments and its snapshots, so callers that serve both
// decoded analyses and raw pushdown scans (the query service) load the
// directory exactly once. Each machine's trace is built from its
// segment (*.fsc) through the colstore scan engine, in sorted machine
// order, under the true names the stem manifest (machines.json) gives;
// a directory without one, or whose manifest lists no machine, fails the
// load. So does a JSON snapshot (*.snap.json), the format corpora held
// before *.snap: loading without it would leave §5 silently empty. A
// manifest.json, when present, must list each loaded machine exactly
// once with one of the five categories, or the load fails naming the
// machine; a corpus saved before manifests loads every machine as
// walk-up with no process names.
//
// When reg is non-nil every opened segment counts blocks scanned and
// skipped and bytes decoded per column family on the colstore bundle.
// Each machine's scan/argsort/gather stages record as a span tree on tr
// (nil tr loads identically and traces nothing).
//
// The load runs in two phases, each spread over GOMAXPROCS workers:
// first every machine's trace, then every snapshot. A snapshot's load
// checks its CRC and reads its header only (snapshot.ReadFile); its
// records are parsed, and checked, by the analyses that read them, so a
// record error fails the render that reaches it, naming the file.
// Results land in slot-indexed entries, so the machines, the snapshots
// and the error returned come out in the order a serial load gives.
func LoadCorpusTrace(dir string, reg *obs.Registry, tr *trace.Tracer) (*Corpus, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	// Snapshots in file-name order.
	var files []string
	for _, e := range entries {
		switch name := e.Name(); {
		case strings.HasSuffix(name, ".snap.json"):
			return nil, fmt.Errorf("core: %s is a JSON snapshot, which this build no longer reads", name)
		case strings.HasSuffix(name, ".snap"):
			files = append(files, name)
		}
	}
	segs, err := collect.LoadColumnarDir(dir, colstore.NewMetrics(reg))
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		return nil, fmt.Errorf("core: %s holds no machine traces", dir)
	}
	var man manifest
	hasManifest := false
	switch data, err := os.ReadFile(filepath.Join(dir, "manifest.json")); {
	case err == nil:
		if err := json.Unmarshal(data, &man); err != nil {
			return nil, fmt.Errorf("core: manifest: %w", err)
		}
		hasManifest = true
	case !errors.Is(err, fs.ErrNotExist):
		// Only a corpus saved without a manifest may lack one; any other
		// failure would load every machine without its dimensions.
		return nil, fmt.Errorf("core: manifest: %w", err)
	}
	cats := map[string]machine.Category{}
	procs := map[string]map[uint32]string{}
	for _, e := range man.Machines {
		if _, dup := cats[e.Name]; dup {
			return nil, fmt.Errorf("core: manifest lists machine %q twice", e.Name)
		}
		if e.Category > machine.Scientific {
			return nil, fmt.Errorf("core: manifest gives machine %q unknown category %d", e.Name, e.Category)
		}
		cats[e.Name] = e.Category
		procs[e.Name] = e.ProcNames
	}
	names := make([]string, 0, len(segs))
	for n := range segs {
		names = append(names, n)
	}
	sort.Strings(names)
	// A manifest lists every machine with a segment (and may list more:
	// Save lists machines that recorded nothing), so none loads without
	// its dimensions.
	for _, n := range names {
		if _, listed := cats[n]; hasManifest && !listed {
			return nil, fmt.Errorf("core: manifest does not list machine %q", n)
		}
	}
	load := func(name string) (*analysis.MachineTrace, error) {
		sp := tr.StartTrace("load", name, trace.HashID("load", name), nil)
		defer sp.Finish()
		return analysis.NewMachineTraceColumnar(name, cats[name], segs[name], sp)
	}
	workers := runtime.GOMAXPROCS(0)
	mts := make([]*analysis.MachineTrace, len(names))
	errs := make([]error, len(names))
	par.For(workers, len(names), func(i int) {
		if mts[i], errs[i] = load(names[i]); errs[i] == nil {
			mts[i].ProcNames = procs[names[i]]
		}
	})
	if err := firstError(errs); err != nil {
		return nil, err
	}
	snaps := make([]*snapshot.Snapshot, len(files))
	errs = make([]error, len(files))
	par.For(workers, len(files), func(i int) {
		snaps[i], errs[i] = snapshot.ReadFile(filepath.Join(dir, files[i]))
	})
	if err := firstError(errs); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &Corpus{DS: &analysis.DataSet{Machines: mts}, Snaps: snaps, Segments: segs}, nil
}

// firstError returns the first non-nil error in slot order.
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
