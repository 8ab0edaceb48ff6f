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
	Machines []manifestEntry `json:"machines"`
}

type manifestEntry struct {
	Name      string            `json:"name"`
	Category  uint8             `json:"category"`
	ProcNames map[uint32]string `json:"proc_names,omitempty"`
}

// Save writes the collected corpus as colstore segments (*.fsc), the
// snapshots (*.snap, the binary snapshot format) and the machine
// manifest into dir. The study must have Run.
//
// Segments and snapshots are encoded and written on GOMAXPROCS workers,
// as LoadCorpusTrace reads them; each lands in its own slot, so the
// directory and the error returned (the first in slot order) are those
// of a serial save.
func (s *Study) Save(dir string) error {
	if !s.ran {
		return fmt.Errorf("core: Save before Run")
	}
	if _, err := s.Store.SaveColumnarDir(dir, colstore.Options{Metrics: s.colMetrics}); err != nil {
		return err
	}
	var man manifest
	for i, sp := range s.specs {
		man.Machines = append(man.Machines, manifestEntry{
			Name:      sp.name,
			Category:  uint8(sp.cat),
			ProcNames: s.procNames(i),
		})
	}
	data, err := json.MarshalIndent(man, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), data, 0o644); err != nil {
		return err
	}
	errs := make([]error, len(s.Snapshots))
	par.For(runtime.GOMAXPROCS(0), len(s.Snapshots), func(i int) {
		snap := s.Snapshots[i]
		errs[i] = writeSnapshot(filepath.Join(dir, fmt.Sprintf("%s-%03d.snap", safe(snap.Machine), i)), snap)
	})
	return firstError(errs)
}

// writeSnapshot encodes one snapshot into a new file at path.
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
// segments (what the pushdown scan engine serves) and the snapshots. The
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
// order. A legacy row stream (*.trz) with no segment of the same stem
// fails the load: such a corpus is imported once with fscorpus convert,
// after which its segments load and the row streams are ignored.
//
// When reg is non-nil every opened segment counts blocks scanned and
// skipped and bytes decoded per column family on the colstore bundle.
// Each machine's scan/argsort/gather stages record as a span tree on tr
// (nil tr loads identically and traces nothing).
//
// The load runs in two phases, each spread over GOMAXPROCS workers:
// first every machine's trace, then every snapshot. Results land in
// slot-indexed entries, so the machines, the snapshots and the error
// returned come out in the order a serial load gives.
func LoadCorpusTrace(dir string, reg *obs.Registry, tr *trace.Tracer) (*Corpus, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	if err := checkNoRowOnly(entries); err != nil {
		return nil, err
	}
	segs, err := collect.LoadColumnarDir(dir, colstore.NewMetrics(reg))
	if err != nil {
		return nil, err
	}
	var man manifest
	switch data, err := os.ReadFile(filepath.Join(dir, "manifest.json")); {
	case err == nil:
		if err := json.Unmarshal(data, &man); err != nil {
			return nil, fmt.Errorf("core: manifest: %w", err)
		}
	case !errors.Is(err, fs.ErrNotExist):
		// Only a corpus saved without a manifest may lack one; any other
		// failure would load every machine without its dimensions.
		return nil, fmt.Errorf("core: manifest: %w", err)
	}
	cats := map[string]machine.Category{}
	procs := map[string]map[uint32]string{}
	// Segments from a corpus without a stem manifest surface under their
	// flattened file stems, so register those keys first and let the true
	// names (the stem-manifest round trip) overwrite them.
	for _, e := range man.Machines {
		cats[safe(e.Name)] = machine.Category(e.Category)
		procs[safe(e.Name)] = e.ProcNames
	}
	for _, e := range man.Machines {
		cats[e.Name] = machine.Category(e.Category)
		procs[e.Name] = e.ProcNames
	}
	names := make([]string, 0, len(segs))
	for n := range segs {
		names = append(names, n)
	}
	sort.Strings(names)
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
	// Snapshots in file-name order; corpora saved before the binary
	// format hold legacy *.snap.json files, which Read still decodes.
	var files []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".snap") || strings.HasSuffix(e.Name(), ".snap.json") {
			files = append(files, e.Name())
		}
	}
	snaps := make([]*snapshot.Snapshot, len(files))
	errs = make([]error, len(files))
	par.For(workers, len(files), func(i int) {
		snaps[i], errs[i] = readSnapshot(dir, files[i])
	})
	if err := firstError(errs); err != nil {
		return nil, err
	}
	return &Corpus{DS: &analysis.DataSet{Machines: mts}, Snaps: snaps, Segments: segs}, nil
}

// checkNoRowOnly fails on the first legacy row stream (*.trz) of a
// corpus directory that has no segment of the same stem: loading without
// it would drop the machine from every measure.
func checkNoRowOnly(entries []fs.DirEntry) error {
	segs := map[string]bool{}
	for _, e := range entries {
		if stem, ok := strings.CutSuffix(e.Name(), collect.ColumnarExt); ok && !e.IsDir() {
			segs[stem] = true
		}
	}
	for _, e := range entries {
		if stem, ok := strings.CutSuffix(e.Name(), ".trz"); ok && !e.IsDir() && !segs[stem] {
			return fmt.Errorf("core: %s is a row stream with no %s segment; import the corpus with fscorpus convert", e.Name(), stem+collect.ColumnarExt)
		}
	}
	return nil
}

// readSnapshot decodes one snapshot file of a corpus directory.
func readSnapshot(dir, name string) (*snapshot.Snapshot, error) {
	f, err := os.Open(filepath.Join(dir, name))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	snap, err := snapshot.Read(f)
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", name, err)
	}
	return snap, nil
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
