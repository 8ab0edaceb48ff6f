// Package analysis reimplements the paper's §4 analysis pipeline: the
// de-normalized star schema with two fact tables — the trace table (raw
// records) and the instance table (one row per file open–close session,
// with summary data for all operations on the object during its
// lifetime) — plus the dimension tables (machine, process, file-type
// category hierarchy) used as category axes, and the §3.3 filtering of
// cache-manager-induced paging duplicates.
//
// The package doubles as the corpus query engine: the trace table is one
// by-start sorted column table per machine, built with its name map at
// construction, and every expensive view derived from it — the instance
// table, the per-kind record index — is built once per MachineTrace, on
// first use, behind a sync.Once, so any number of tables and figures can
// be computed concurrently over one decoded corpus without rescanning or
// rebuilding shared state.
package analysis

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/colstore"
	"repro/internal/ntos/machine"
	"repro/internal/ntos/types"
	"repro/internal/sim"
	"repro/internal/tracefmt"
)

// MachineTrace is one machine's trace stream plus its dimensions. The
// stream is held as one column table sorted by start timestamp (stable
// among equal starts), with the file-id → path map beside it; every
// measure folds the column vectors directly.
type MachineTrace struct {
	Name     string
	Category machine.Category
	// ProcNames maps pid → image name (the process dimension). Optional.
	ProcNames map[uint32]string

	// tab holds every numeric column in by-start sorted order and names
	// the id → path map, both built at construction. Rows() rebuilds
	// the records from tab, which NewMachineTrace fills with whole
	// records, or reads them back from seg (NewMachineTraceColumnar)
	// and reorders them by perm, the stable by-start permutation from
	// stream order (nil when the stream was already sorted).
	tab   *colstore.Batch
	names map[types.FileObjectID]string
	seg   *colstore.Segment
	perm  []int32

	// Lazily derived, sync.Once-guarded state. Safe for concurrent use:
	// after the Once completes the views are immutable.
	insOnce  sync.Once
	ins      []*Instance
	idxOnce  sync.Once
	idx      *MachineIndex
	rowsOnce sync.Once
	rows     []tracefmt.Record
}

// DataSet is the full study corpus.
type DataSet struct {
	Machines []*MachineTrace

	// Lazy corpus index (see Index); the zero value keeps DataSet
	// literals constructible.
	idxOnce sync.Once
	idx     *Index
}

// Table returns the trace's by-start sorted column table: every numeric
// column (a records-built trace's table also holds the rest of each
// record), indexed by the same positions as Index(). The table is
// shared and must not be mutated.
func (mt *MachineTrace) Table() *colstore.Batch { return mt.tab }

// Len is the number of records in the trace.
func (mt *MachineTrace) Len() int { return mt.tab.N }

// FirstStart returns the earliest record timestamp (0 on empty traces).
func (mt *MachineTrace) FirstStart() sim.Time {
	if mt.tab.N == 0 {
		return 0
	}
	return mt.tab.Starts[0]
}

// LastStart returns the latest record timestamp (0 on empty traces).
func (mt *MachineTrace) LastStart() sim.Time {
	if mt.tab.N == 0 {
		return 0
	}
	return mt.tab.Starts[mt.tab.N-1]
}

// Rows returns the trace as whole records in by-start order, for the
// consumers that replay or refit structured rows (replay, synthesis).
// They are built once on first use and cached — rebuilt from the table,
// or read back from the segment and permuted; no measure takes this
// path.
//
// Every block CRC was already verified by the construction-time column
// scan, so a decode failure here means the segment mutated underneath
// us; that invariant violation panics rather than returning partial
// rows.
func (mt *MachineTrace) Rows() []tracefmt.Record {
	mt.rowsOnce.Do(func() {
		if mt.seg == nil {
			mt.rows = mt.tab.Records()
			return
		}
		recs, err := mt.seg.ReadAll()
		if err != nil {
			panic(fmt.Sprintf("analysis: materializing columnar trace %s: %v", mt.Name, err))
		}
		if mt.perm != nil {
			sorted := make([]tracefmt.Record, len(recs))
			for i, p := range mt.perm {
				sorted[i] = recs[p]
			}
			recs = sorted
		}
		mt.rows = recs
	})
	return mt.rows
}

// Names maps file-object ids to paths, indexed from EvNameMap records
// at construction (a later record wins). The returned map is shared and
// must not be mutated.
func (mt *MachineTrace) Names() map[types.FileObjectID]string { return mt.names }

// PathOf resolves a file-object id to its path ("" when unknown).
func (mt *MachineTrace) PathOf(id types.FileObjectID) string { return mt.Names()[id] }

// BuildInstancesHook, when non-nil, observes every raw instance-table
// construction — test instrumentation for the build-once discipline.
// Compute fans machines across workers, so the hook must be safe for
// concurrent calls.
var BuildInstancesHook func(machine string)

// Instances returns the machine's §4 instance table, building it on
// first use and serving every later query from the cache. The returned
// slice is shared — callers must not mutate it.
func (mt *MachineTrace) Instances() []*Instance {
	mt.insOnce.Do(func() { mt.ins = BuildInstances(mt) })
	return mt.ins
}

// IsCachePaging reports whether a record is cache-manager-originated
// paging I/O — the §3.3 "duplicate actions" the analysis must filter from
// user-level accounting while keeping VM image/section paging.
func IsCachePaging(r *tracefmt.Record) bool {
	return r.Kind.IsPaging() && r.FileID >= tracefmt.PagingObjectIDBase
}

// IsDataTransfer reports whether a record is an application-level read or
// write that actually moved bytes (FastIO refusals excluded).
func IsDataTransfer(r *tracefmt.Record) bool { return isDataTransfer(r.Kind, r.Annot, r.Status) }

// isDataTransfer is IsDataTransfer over one row's column values.
func isDataTransfer(k tracefmt.EventKind, annot uint8, status types.Status) bool {
	switch k {
	case tracefmt.EvRead, tracefmt.EvWrite, tracefmt.EvFastRead, tracefmt.EvFastWrite,
		tracefmt.EvFastMdlRead, tracefmt.EvFastMdlWrite:
		return annot&tracefmt.AnnotFastRefused == 0 && !status.IsError()
	}
	return false
}

// IsRead reports whether a data-transfer record is a read.
func IsRead(r *tracefmt.Record) bool {
	switch r.Kind {
	case tracefmt.EvRead, tracefmt.EvFastRead, tracefmt.EvFastMdlRead,
		tracefmt.EvPagingRead, tracefmt.EvReadAhead:
		return true
	}
	return false
}

// IsOpenAttempt reports whether a record is a file-open attempt
// (successful or failed).
func IsOpenAttempt(r *tracefmt.Record) bool {
	return r.Kind == tracefmt.EvCreate || r.Kind == tracefmt.EvCreateFailed
}

// TypeCategory is the two-level file-type dimension of §4's example
// ("a mailbox file with a .mbx type is part of the mail files category,
// which is part of the application files category").
type TypeCategory struct {
	// Major is the top category: system, application, development,
	// web, temporary, document, data, other.
	Major string
	// Minor is the sub-category: executable, library, font, mail, ...
	Minor string
}

var extCategories = map[string]TypeCategory{
	"exe":  {"system", "executable"},
	"dll":  {"system", "library"},
	"sys":  {"system", "driver"},
	"ttf":  {"system", "font"},
	"fon":  {"system", "font"},
	"hlp":  {"system", "help"},
	"inf":  {"system", "setup"},
	"cpl":  {"system", "control"},
	"ini":  {"application", "configuration"},
	"lnk":  {"application", "shortcut"},
	"mbx":  {"application", "mail"},
	"db":   {"application", "database"},
	"mdb":  {"application", "database"},
	"dat":  {"application", "data"},
	"wav":  {"application", "media"},
	"doc":  {"document", "office"},
	"xls":  {"document", "office"},
	"ppt":  {"document", "office"},
	"pdf":  {"document", "office"},
	"txt":  {"document", "text"},
	"csv":  {"document", "text"},
	"htm":  {"web", "page"},
	"html": {"web", "page"},
	"gif":  {"web", "image"},
	"jpg":  {"web", "image"},
	"js":   {"web", "script"},
	"css":  {"web", "style"},
	"c":    {"development", "source"},
	"h":    {"development", "source"},
	"cpp":  {"development", "source"},
	"obj":  {"development", "build"},
	"lib":  {"development", "build"},
	"pch":  {"development", "build"},
	"ilk":  {"development", "build"},
	"pdb":  {"development", "build"},
	"tmp":  {"temporary", "scratch"},
	"sav":  {"temporary", "backup"},
	"zip":  {"data", "archive"},
	"hdf":  {"data", "dataset"},
	"out":  {"data", "output"},
}

// ClassifyExt maps an extension to its category.
func ClassifyExt(ext string) TypeCategory {
	if c, ok := extCategories[strings.ToLower(ext)]; ok {
		return c
	}
	return TypeCategory{"other", "other"}
}

// ExtOf extracts the lower-case extension from a path.
func ExtOf(path string) string {
	slash := strings.LastIndexByte(path, '\\')
	dot := strings.LastIndexByte(path, '.')
	if dot > slash && dot < len(path)-1 {
		return strings.ToLower(path[dot+1:])
	}
	return ""
}
