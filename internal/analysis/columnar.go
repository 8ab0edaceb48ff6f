package analysis

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"sync"

	"repro/internal/colstore"
	"repro/internal/ntos/machine"
	"repro/internal/ntos/types"
	"repro/internal/obs/trace"
	"repro/internal/sim"
	"repro/internal/tracefmt"
)

// streamBatchPool recycles the constructors' scratch batches — the
// stream-order table and the name blobs — across machine constructions:
// a constructor fills them, the sorted copy is carved out exactly sized,
// and the (machine-sized) scratch goes back to the pool instead of the
// garbage collector.
var streamBatchPool = sync.Pool{New: func() any { return &colstore.Batch{} }}

// NewMachineTrace builds a MachineTrace from a record stream in stream
// order: the records are transposed into a pooled stream-order batch
// (colstore.Batch.AppendRecords, which keeps every field), and the
// shared tail sorts it into the trace's column table. recs is neither
// modified nor kept; Rows() rebuilds the records from the table.
func NewMachineTrace(name string, cat machine.Category, recs []tracefmt.Record) *MachineTrace {
	sb := streamBatchPool.Get().(*colstore.Batch)
	defer streamBatchPool.Put(sb)
	nb := streamBatchPool.Get().(*colstore.Batch)
	defer streamBatchPool.Put(nb)
	sb.Reset()
	sb.AppendRecords(recs)
	nb.Reset()
	nb.Grow(colstore.ScanName, nameRecords(sb))
	for i := range recs {
		if recs[i].Kind == tracefmt.EvNameMap {
			nb.Names = append(nb.Names, recs[i].Name[:]...)
		}
	}
	return newMachineTrace(name, cat, sb, nb.Names, nil, nil)
}

// NewMachineTraceColumnar builds a MachineTrace from a columnar segment
// without materializing rows: every numeric column is scanned into a
// pooled stream-order batch (the 64-byte name blobs stay encoded), and
// a name-column pushdown scan decodes only the blobs of the
// EvNameMap-bearing blocks. The stages — scan, stable argsort, column
// gather, name map — are recorded as child spans of parent (nil parent
// traces nothing; the construction is identical either way). A block
// that fails its CRC, or a name column that does not decode to one blob
// per name record, is an error.
func NewMachineTraceColumnar(name string, cat machine.Category, seg *colstore.Segment, parent *trace.Span) (*MachineTrace, error) {
	scan := parent.Child("scan")
	sb := streamBatchPool.Get().(*colstore.Batch)
	defer streamBatchPool.Put(sb)
	nb := streamBatchPool.Get().(*colstore.Batch)
	defer streamBatchPool.Put(nb)
	if err := scanInto(seg, colstore.Predicate{}, colstore.ScanAllNumeric, sb); err != nil {
		scan.Finish()
		return nil, fmt.Errorf("analysis: %s: %w", name, err)
	}
	namePred := colstore.Predicate{Kinds: []tracefmt.EventKind{tracefmt.EvNameMap}}
	if err := scanInto(seg, namePred, colstore.ScanName, nb); err != nil {
		scan.Finish()
		return nil, fmt.Errorf("analysis: %s: names: %w", name, err)
	}
	scan.AnnotateInt("rows", int64(sb.N))
	scan.Finish()
	if nameRecs := nameRecords(sb); nb.N != nameRecs {
		return nil, fmt.Errorf("analysis: %s: %d name blobs for %d name records", name, nb.N, nameRecs)
	}
	return newMachineTrace(name, cat, sb, nb.Names, seg, parent), nil
}

// nameRecords counts the EvNameMap records of the stream-order table sb.
func nameRecords(sb *colstore.Batch) int {
	n := 0
	for _, k := range sb.Kinds {
		if k == tracefmt.EvNameMap {
			n++
		}
	}
	return n
}

// scanInto resets b and fills it with seg's rows matching p, projected
// to cols, in stream order.
func scanInto(seg *colstore.Segment, p colstore.Predicate, cols colstore.ColumnSet, b *colstore.Batch) error {
	b.Reset()
	it := seg.Batches(p, cols)
	for {
		ok, err := it.Next(b)
		if err != nil || !ok {
			return err
		}
	}
}

// newMachineTrace is the constructors' shared tail. sb is the trace in
// stream order and blobs holds the tracefmt.NameLen-byte name of each
// of its EvNameMap records, in stream order; seg is the segment sb was
// scanned from (nil: sb holds whole records). The stable by-start
// permutation is computed from the start column and each column vector
// is gathered into an exactly-sized sorted copy; the name map is built
// from the blobs. sb may be reused once this returns.
func newMachineTrace(name string, cat machine.Category, sb *colstore.Batch, blobs []byte, seg *colstore.Segment, parent *trace.Span) *MachineTrace {
	// Stable argsort by start time. Trace buffers from different volumes
	// interleave at flush granularity, so the stream is near-sorted and
	// the permutation near-identity; stability preserves flush order
	// among equal timestamps.
	argsort := parent.Child("argsort")
	var perm []int32
	if !startsSorted(sb.Starts) {
		perm = make([]int32, sb.N)
		for i := range perm {
			perm[i] = int32(i)
		}
		starts := sb.Starts
		slices.SortStableFunc(perm, func(a, b int32) int { return cmp.Compare(starts[a], starts[b]) })
	} else {
		argsort.Annotate("sorted", "already")
	}
	argsort.Finish()

	gather := parent.Child("gather")
	tab := sb.Permuted(perm)
	gather.Finish()

	names := parent.Child("names")
	mt := &MachineTrace{
		Name:     name,
		Category: cat,
		tab:      tab,
		names:    nameMap(sb, blobs, perm != nil),
	}
	if seg != nil {
		mt.seg, mt.perm = seg, perm
	}
	names.AnnotateInt("paths", int64(len(mt.names)))
	names.Finish()
	return mt
}

// startsSorted reports whether the start column is already non-decreasing
// (the common case: a single-volume machine flushes in order).
func startsSorted(starts []sim.Time) bool {
	for i := 1; i < len(starts); i++ {
		if starts[i] < starts[i-1] {
			return false
		}
	}
	return true
}

// nameMap builds the id → path map from the stream-order table sb and
// the name blobs of its EvNameMap records (blob k belongs to the k-th
// name record in stream order). Names are inserted in by-start order
// with stable ties — the order the sorted table holds them in — so a
// later record wins; only an unsorted stream needs the name records
// reordered.
func nameMap(sb *colstore.Batch, blobs []byte, unsorted bool) map[types.FileObjectID]string {
	var pos []int32 // stream position of each name record
	for i, k := range sb.Kinds {
		if k == tracefmt.EvNameMap {
			pos = append(pos, int32(i))
		}
	}
	ord := make([]int32, len(pos))
	for k := range ord {
		ord[k] = int32(k)
	}
	if unsorted {
		starts := sb.Starts
		slices.SortStableFunc(ord, func(a, b int32) int { return cmp.Compare(starts[pos[a]], starts[pos[b]]) })
	}
	names := make(map[types.FileObjectID]string, len(pos))
	for _, k := range ord {
		b := blobs[int(k)*tracefmt.NameLen : (int(k)+1)*tracefmt.NameLen]
		if j := bytes.IndexByte(b, 0); j >= 0 {
			b = b[:j]
		}
		names[sb.FileIDs[pos[k]]] = string(b)
	}
	return names
}
