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
	"sort"

	"repro/internal/analysis"
	"repro/internal/collect"
	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/trace"
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
	// (machine name, logical record-stream SHA-256) pairs. The colstore
	// footer SHA is defined over the logical record stream, so a corpus
	// converted from legacy row streams digests as the study's own save.
	SHA [sha256.Size]byte

	machines []string // sorted true machine names
	ds       *analysis.DataSet
	snaps    int
	parts    *core.Corpus
}

// OpenCorpusTrace loads dir exactly once, with per-machine load tracing
// on tr (nil tr loads identically and traces nothing), and computes the
// corpus identity. The registry (nil ok) receives colstore
// pushdown-ledger metrics for every scan the service runs later.
func OpenCorpusTrace(dir string, reg *obs.Registry, tr *trace.Tracer) (*Corpus, error) {
	parts, err := core.LoadCorpusTrace(dir, reg, tr)
	if err != nil {
		return nil, err
	}
	c := &Corpus{
		Dir:   dir,
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

	h := sha256.New()
	for _, name := range c.machines {
		sum := c.parts.Segments[name].SHA256()
		h.Write([]byte(name))
		h.Write([]byte{0})
		h.Write(sum[:])
	}
	h.Sum(c.SHA[:0])
	return c, nil
}

// SHAHex is the corpus identity as the API renders it.
func (c *Corpus) SHAHex() string { return hex.EncodeToString(c.SHA[:]) }

// Machines lists the sorted true machine names.
func (c *Corpus) Machines() []string { return c.machines }

// Records reports the record count of one machine.
func (c *Corpus) Records(name string) int {
	if seg := c.parts.Segments[name]; seg != nil {
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
// order. The stats are the scan's own block ledger.
func (c *Corpus) ScanMachine(name string, p colstore.Predicate, cols colstore.ColumnSet) (*colstore.Batch, colstore.ScanStats, error) {
	seg := c.parts.Segments[name]
	if seg == nil {
		return nil, colstore.ScanStats{}, fmt.Errorf("%w for machine %q", collect.ErrNoRecords, name)
	}
	return seg.ScanColumnsStats(p, cols)
}
