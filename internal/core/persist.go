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

// Save writes the collected corpus, snapshots (*.snap, the binary
// snapshot format) and the machine manifest into dir. The corpus layout
// follows Cfg.Columnar: row streams (*.trz) by default, colstore
// segments (*.fsc) when set — restored machines reuse the segment
// carried by their checkpoint instead of re-encoding. The study must
// have Run.
//
// Segments and snapshots are encoded and written on GOMAXPROCS workers,
// as LoadCorpusTrace reads them; each lands in its own slot, so the
// directory and the error returned (the first in slot order) are those
// of a serial save.
func (s *Study) Save(dir string) error {
	if !s.ran {
		return fmt.Errorf("core: Save before Run")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if s.Cfg.Columnar {
		prebuilt := map[string][]byte{}
		for i, r := range s.restored {
			if r != nil && r.Segment != nil {
				prebuilt[s.specs[i].name] = r.Segment
			}
		}
		if _, err := s.Store.SaveColumnarDir(dir, colstore.Options{Metrics: s.colMetrics}, prebuilt); err != nil {
			return err
		}
	} else if err := s.Store.SaveDir(dir); err != nil {
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
// the analysis DataSet (what the report pipeline consumes), the raw
// columnar segments (what the pushdown scan engine serves), the row
// store for machines saved without a segment, and the snapshots. The
// query service holds one of these for its whole lifetime.
type Corpus struct {
	DS    *analysis.DataSet
	Snaps []*snapshot.Snapshot
	// Segments holds the columnar form keyed by true machine name; a
	// machine absent here was loaded from its row stream.
	Segments map[string]*colstore.Segment
	// Store holds the row streams (possibly empty for a pure-columnar
	// corpus), keyed by true machine name.
	Store *collect.Store
}

// Load reads a saved study directory back into an analysis corpus and
// its snapshots. Machines saved as columnar segments (*.fsc) decode
// through the colstore scan engine — the index pre-seeded from a narrow
// column scan — and the rest fall back to row streams (*.trz); a
// directory may mix both, and a machine with both forms uses the
// columnar one.
func Load(dir string) (*analysis.DataSet, []*snapshot.Snapshot, error) {
	return LoadObs(dir, nil)
}

// LoadObs is Load with corpus-scan instrumentation: when reg is non-nil
// every opened segment counts blocks scanned/skipped and bytes decoded
// per column family on the colstore bundle.
func LoadObs(dir string, reg *obs.Registry) (*analysis.DataSet, []*snapshot.Snapshot, error) {
	c, err := LoadCorpus(dir, reg)
	if err != nil {
		return nil, nil, err
	}
	return c.DS, c.Snaps, nil
}

// LoadCorpus is LoadObs keeping the storage layers open alongside the
// DataSet, so callers that serve both decoded analyses and raw pushdown
// scans (the query service) load the directory exactly once.
func LoadCorpus(dir string, reg *obs.Registry) (*Corpus, error) {
	return LoadCorpusTrace(dir, reg, nil)
}

// LoadCorpusTrace is LoadCorpus with per-machine load tracing: each
// columnar machine's scan/argsort/gather stages record as a span tree on
// tr (nil tr loads identically and traces nothing).
//
// The load runs in two phases, each spread over GOMAXPROCS workers:
// first every machine's trace, then every snapshot. Results land in
// slot-indexed entries, so the machines, the snapshots and the error
// returned come out in the order a serial load gives.
func LoadCorpusTrace(dir string, reg *obs.Registry, tr *trace.Tracer) (*Corpus, error) {
	segs, err := collect.LoadColumnarDir(dir, colstore.NewMetrics(reg))
	if err != nil {
		return nil, err
	}
	store, err := collect.LoadDir(dir)
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
	// Streams from a corpus without a stem manifest surface under their
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
	// Union of both layouts, row names first (sorted), then any
	// columnar-only machines in sorted order.
	names := store.Machines()
	have := map[string]bool{}
	for _, n := range names {
		have[n] = true
	}
	var extra []string
	for n := range segs {
		if !have[n] {
			extra = append(extra, n)
		}
	}
	sort.Strings(extra)
	names = append(names, extra...)
	load := func(name string) (*analysis.MachineTrace, error) {
		if seg := segs[name]; seg != nil {
			sp := tr.StartTrace("load", name, trace.HashID("load", name), nil)
			defer sp.Finish()
			return analysis.NewMachineTraceColumnar(name, cats[name], seg, sp)
		}
		recs, err := store.Records(name)
		if err != nil {
			return nil, err
		}
		return analysis.NewMachineTrace(name, cats[name], recs), nil
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
	entries, err := os.ReadDir(dir)
	if err != nil {
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
	return &Corpus{DS: &analysis.DataSet{Machines: mts}, Snaps: snaps, Segments: segs, Store: store}, nil
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
