package core

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/collect"
	"repro/internal/colstore"
	"repro/internal/ntos/machine"
	"repro/internal/obs"
	"repro/internal/obs/trace"
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
	for i, snap := range s.Snapshots {
		name := fmt.Sprintf("%s-%03d.snap", safe(snap.Machine), i)
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if err := snap.Write(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
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
	if data, err := os.ReadFile(filepath.Join(dir, "manifest.json")); err == nil {
		if err := json.Unmarshal(data, &man); err != nil {
			return nil, fmt.Errorf("core: manifest: %w", err)
		}
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
	ds := &analysis.DataSet{}
	for _, name := range names {
		var mt *analysis.MachineTrace
		if seg := segs[name]; seg != nil {
			sp := tr.StartTrace("load", name, trace.HashID("load", name), nil)
			mt, err = analysis.NewMachineTraceColumnar(name, cats[name], seg, sp)
			sp.Finish()
			if err != nil {
				return nil, err
			}
		} else {
			recs, err := store.Records(name)
			if err != nil {
				return nil, err
			}
			mt = analysis.NewMachineTrace(name, cats[name], recs)
		}
		mt.ProcNames = procs[name]
		ds.Machines = append(ds.Machines, mt)
	}
	var snaps []*snapshot.Snapshot
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	// Snapshots in file-name order; corpora saved before the binary
	// format hold legacy *.snap.json files, which Read still decodes.
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".snap") && !strings.HasSuffix(e.Name(), ".snap.json") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		snap, err := snapshot.Read(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("core: %s: %w", e.Name(), err)
		}
		snaps = append(snaps, snap)
	}
	return &Corpus{DS: ds, Snaps: snaps, Segments: segs, Store: store}, nil
}
