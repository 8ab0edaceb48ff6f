// Package query is the corpus serving layer: an HTTP JSON service that
// loads a saved trace corpus once and answers repeated questions about
// it cheaply — raw predicate-pushdown scans through the colstore engine
// and the paper's report artifacts through the analysis pipeline — from
// a sharded LRU result cache keyed by corpus identity and canonicalized
// query. It is the role SQL Server 7's star-schema OLAP warehouse played
// in §4 of the paper: the ~190M-record corpus was only useful because it
// could be queried interactively, many times, without re-reading tapes.
//
// Determinism contract: identical queries return byte-identical bodies
// whether served cold, from cache, or at any worker count. The cache
// stores the exact bytes the cold path rendered; the cold path fans out
// per machine into slot-indexed results merged in sorted machine order;
// and the report path reuses report.ComputeWorkers, whose output is
// already worker-count-invariant.
package query

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"

	"repro/internal/analysis"
	"repro/internal/collect"
	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/par"
)

// cacheKey is a result identity: SHA-256 over corpus SHA ‖ canonical
// query string.
type cacheKey [sha256.Size]byte

// Corpus is a loaded corpus directory pinned in memory for serving:
// one columnar segment per machine (pushdown scans), the analysis
// DataSet (report artifacts) and the corpus identity digest that scopes
// every cache key.
type Corpus struct {
	Dir string
	// SHA identifies the corpus content: a digest over the sorted
	// (machine name, logical record-stream SHA-256) pairs. The row and
	// columnar forms of the same corpus digest identically, because the
	// colstore footer SHA is defined over the logical record stream.
	SHA [sha256.Size]byte

	machines []string // sorted true machine names
	segs     map[string]*colstore.Segment
	ds       *analysis.DataSet
	snaps    int
	parts    *core.Corpus
}

// OpenCorpus loads dir exactly once and computes the corpus identity.
// A machine saved without a *.fsc segment has its row stream sealed
// into an in-memory segment here, once, so every scan runs through the
// one pushdown engine. The registry (nil ok) receives colstore
// pushdown-ledger metrics for every scan the service runs later.
func OpenCorpus(dir string, reg *obs.Registry) (*Corpus, error) {
	return OpenCorpusTrace(dir, reg, nil)
}

// OpenCorpusTrace is OpenCorpus with per-machine load tracing on tr
// (nil tr loads identically and traces nothing).
func OpenCorpusTrace(dir string, reg *obs.Registry, tr *trace.Tracer) (*Corpus, error) {
	parts, err := core.LoadCorpusTrace(dir, reg, tr)
	if err != nil {
		return nil, err
	}
	c := &Corpus{
		Dir:   dir,
		segs:  make(map[string]*colstore.Segment, len(parts.DS.Machines)),
		ds:    parts.DS,
		snaps: len(parts.Snaps),
		parts: parts,
	}
	for _, mt := range parts.DS.Machines {
		c.machines = append(c.machines, mt.Name)
	}
	sort.Strings(c.machines)
	if len(c.machines) == 0 {
		return nil, fmt.Errorf("query: %s holds no trace streams", dir)
	}

	for name, seg := range parts.Segments {
		c.segs[name] = seg
	}
	// Seal the row-only machines, one worker per CPU. A sealed segment
	// keeps the stream order and its footer SHA is the stream's
	// RowStreamSHA, so scans and the identity below come out the same as
	// from a saved segment of the same stream.
	var rowOnly []string
	for _, name := range parts.Store.Machines() {
		if c.segs[name] == nil {
			rowOnly = append(rowOnly, name)
		}
	}
	m := colstore.NewMetrics(reg)
	sealed := make([]*colstore.Segment, len(rowOnly))
	errs := make([]error, len(rowOnly))
	par.For(runtime.GOMAXPROCS(0), len(rowOnly), func(i int) {
		sealed[i], errs[i] = sealRows(parts.Store, rowOnly[i], m)
	})
	for i, name := range rowOnly {
		if errs[i] != nil {
			return nil, errs[i]
		}
		c.segs[name] = sealed[i]
	}

	h := sha256.New()
	for _, name := range c.machines {
		sum := c.segs[name].SHA256()
		h.Write([]byte(name))
		h.Write([]byte{0})
		h.Write(sum[:])
	}
	h.Sum(c.SHA[:0])
	return c, nil
}

// sealBlockRecords is the block size of a sealed segment. At the
// on-disk default a row-only machine of a few thousand records is one
// block, which no zone map can skip; with small blocks the kind bitmaps
// and start ranges skip most of a selective scan. Of 64 to 65,536
// records a block, 128 gave the fastest cold scans on corpora of 45
// machines × 5 minutes and of 12 machines × 1 hour (2-vCPU host).
const sealBlockRecords = 128

// sealRows encodes one machine's row stream as an in-memory segment.
// The segment is never stored or shipped, so its columns skip DEFLATE:
// sealing and every later scan of it cost less, and it still holds far
// fewer bytes than the decoded records.
func sealRows(store *collect.Store, name string, m *colstore.Metrics) (*colstore.Segment, error) {
	recs, err := store.Records(name)
	if err != nil {
		return nil, fmt.Errorf("query: %s: %w", name, err)
	}
	data, _, err := colstore.EncodeSegment(recs, colstore.Options{NoCompress: true, BlockRecords: sealBlockRecords})
	if err != nil {
		return nil, fmt.Errorf("query: sealing %s: %w", name, err)
	}
	seg, err := colstore.OpenSegment(data, m)
	if err != nil {
		return nil, fmt.Errorf("query: sealing %s: %w", name, err)
	}
	return seg, nil
}

// SHAHex is the corpus identity as the API renders it.
func (c *Corpus) SHAHex() string { return hex.EncodeToString(c.SHA[:]) }

// Machines lists the sorted true machine names.
func (c *Corpus) Machines() []string { return c.machines }

// Columnar reports whether the machine was stored as a colstore segment
// (true) or as a row stream sealed at open (false).
func (c *Corpus) Columnar(name string) bool { return c.parts.Segments[name] != nil }

// Records reports the record count of one machine.
func (c *Corpus) Records(name string) int {
	if seg := c.segs[name]; seg != nil {
		return seg.Records()
	}
	return 0
}

// TotalRecords sums record counts across the corpus.
func (c *Corpus) TotalRecords() int {
	n := 0
	for _, m := range c.machines {
		n += c.Records(m)
	}
	return n
}

// DataSet exposes the decoded analysis corpus (report artifacts).
func (c *Corpus) DataSet() *analysis.DataSet { return c.ds }

// Parts exposes the underlying storage layers.
func (c *Corpus) Parts() *core.Corpus { return c.parts }

// ScanMachine runs one machine's pushdown scan, producing rows in stream
// order whichever layout the machine was stored in. The stats are the
// scan's own block ledger.
func (c *Corpus) ScanMachine(name string, p colstore.Predicate, cols colstore.ColumnSet) (*colstore.Batch, colstore.ScanStats, error) {
	seg := c.segs[name]
	if seg == nil {
		return nil, colstore.ScanStats{}, fmt.Errorf("%w for machine %q", collect.ErrNoRecords, name)
	}
	return seg.ScanColumnsStats(p, cols)
}
