package colstore

import (
	"slices"
	"time"

	"repro/internal/ntos/types"
	"repro/internal/sim"
	"repro/internal/tracefmt"
)

// Predicate is what a scan pushes down into the segment: a kind set and
// a start-timestamp window. The zero value selects everything. Blocks
// whose zone maps cannot match are skipped without touching their bytes.
type Predicate struct {
	// Kinds restricts the scan to these event kinds (empty = all).
	Kinds []tracefmt.EventKind
	// MinStart/MaxStart bound the record start timestamp, inclusive.
	// MaxStart == 0 means unbounded above; MinStart == 0 unbounded below.
	MinStart sim.Time
	MaxStart sim.Time
}

// kindMask folds the kind set onto the zone-map bitmap.
func (p *Predicate) kindMask() uint64 {
	var m uint64
	for _, k := range p.Kinds {
		m |= kindBit(k)
	}
	return m
}

// skip reports whether the block's zone map proves no record matches.
func (p *Predicate) skip(mask uint64, meta *blockMeta) bool {
	if mask != 0 && mask&meta.kindBits == 0 {
		return true
	}
	if p.MinStart > 0 && meta.maxStart < int64(p.MinStart) {
		return true
	}
	if p.MaxStart > 0 && meta.minStart > int64(p.MaxStart) {
		return true
	}
	return false
}

// matchRow applies the predicate exactly to one record's kind and start.
func (p *Predicate) matchRow(want *[256]bool, kind uint64, start int64) bool {
	if want != nil && !want[byte(kind)] {
		return false
	}
	if p.MinStart > 0 && start < int64(p.MinStart) {
		return false
	}
	if p.MaxStart > 0 && start > int64(p.MaxStart) {
		return false
	}
	return true
}

func (p *Predicate) kindSet() *[256]bool {
	if len(p.Kinds) == 0 {
		return nil
	}
	var want [256]bool
	for _, k := range p.Kinds {
		want[byte(k)] = true
	}
	return &want
}

// ColumnSet selects which columns a ScanColumns materializes.
type ColumnSet uint32

// The projectable columns of the narrow scan path.
const (
	ScanKind ColumnSet = 1 << iota
	ScanStart
	ScanEnd
	ScanOffset
	ScanLength
	ScanReturned
	ScanFileSize
	ScanProc
	ScanFileID
	ScanStatus
	ScanFlags
	ScanAnnot
	ScanFOFl
	ScanBytePos
	ScanDisposition
	ScanOptions
	ScanAttributes
	ScanFsControl
	ScanName
)

// ScanAllNumeric selects every projectable column except the 64-byte
// names — the widest projection that still skips name-blob inflation,
// and the column set the vectorized compute kernels consume.
const ScanAllNumeric = ScanKind | ScanStart | ScanEnd | ScanOffset |
	ScanLength | ScanReturned | ScanFileSize | ScanProc | ScanFileID |
	ScanStatus | ScanFlags | ScanAnnot | ScanFOFl | ScanBytePos |
	ScanDisposition | ScanOptions | ScanAttributes | ScanFsControl

// Batch is the result of a column-projected scan: only the requested
// columns are non-nil, all of equal length N, row i across the slices
// describing one matching record in stream order. Names holds
// tracefmt.NameLen bytes per row when ScanName was requested.
//
// A batch filled by AppendRecords holds the whole record instead: every
// ScanAllNumeric column plus the rest fields below, which no scan
// projects, and the names in sparse form rather than in Names.
type Batch struct {
	N             int
	Kinds         []tracefmt.EventKind
	Starts        []sim.Time
	Ends          []sim.Time
	Offsets       []int64
	Lengths       []int32
	Returns       []int32
	FileSizes     []int64
	Procs         []uint32
	FileIDs       []types.FileObjectID
	Statuses      []types.Status
	Flags         []types.IrpFlags
	Annots        []uint8
	FOFls         []types.FileObjectFlags
	BytePositions []int64
	Dispositions  []types.CreateDisposition
	Options       []types.CreateOptions
	Attributes    []types.FileAttributes
	FsControls    []types.FsControlCode
	Names         []byte

	// The rest of a record, filled only by AppendRecords: the IRP major
	// and minor function and set-information class, which no kernel
	// reads, and the names in sparse form — the rows whose record
	// carries a non-zero name, ascending, and their tracefmt.NameLen-byte
	// blobs in that order.
	Majors      []types.MajorFunction
	Minors      []types.MinorFunction
	InfoClasses []types.SetInfoClass
	NameRows    []int32
	NameBlobs   []byte
}

// Reset truncates the batch in place, keeping every column's capacity.
// This is the reuse contract of BlockScanner.Next: Reset before each
// call and the steady-state scan performs no per-block allocation (the
// batch mirror of tracefmt.Reader.Reset).
func (b *Batch) Reset() {
	b.N = 0
	b.Kinds = b.Kinds[:0]
	b.Starts = b.Starts[:0]
	b.Ends = b.Ends[:0]
	b.Offsets = b.Offsets[:0]
	b.Lengths = b.Lengths[:0]
	b.Returns = b.Returns[:0]
	b.FileSizes = b.FileSizes[:0]
	b.Procs = b.Procs[:0]
	b.FileIDs = b.FileIDs[:0]
	b.Statuses = b.Statuses[:0]
	b.Flags = b.Flags[:0]
	b.Annots = b.Annots[:0]
	b.FOFls = b.FOFls[:0]
	b.BytePositions = b.BytePositions[:0]
	b.Dispositions = b.Dispositions[:0]
	b.Options = b.Options[:0]
	b.Attributes = b.Attributes[:0]
	b.FsControls = b.FsControls[:0]
	b.Names = b.Names[:0]
	b.Majors = b.Majors[:0]
	b.Minors = b.Minors[:0]
	b.InfoClasses = b.InfoClasses[:0]
	b.NameRows = b.NameRows[:0]
	b.NameBlobs = b.NameBlobs[:0]
}

// scanCols maps the projection onto the physical columns that must be
// decoded: the predicate's filter columns ride along, and ScanEnd pulls
// ScanStart because end timestamps are stored as deltas from start.
func scanCols(p *Predicate, cols ColumnSet) (need [numColumns]bool) {
	if cols&ScanKind != 0 || len(p.Kinds) > 0 {
		need[ColKind] = true
	}
	if cols&(ScanStart|ScanEnd) != 0 || p.MinStart > 0 || p.MaxStart > 0 {
		need[ColStart] = true
	}
	if cols&ScanEnd != 0 {
		need[ColEnd] = true
	}
	if cols&ScanOffset != 0 {
		need[ColOffset] = true
	}
	if cols&ScanLength != 0 {
		need[ColLength] = true
	}
	if cols&ScanReturned != 0 {
		need[ColReturned] = true
	}
	if cols&ScanFileSize != 0 {
		need[ColFileSize] = true
	}
	if cols&ScanProc != 0 {
		need[ColProc] = true
	}
	if cols&ScanFileID != 0 {
		need[ColFileID] = true
	}
	if cols&ScanStatus != 0 {
		need[ColStatus] = true
	}
	if cols&ScanFlags != 0 {
		need[ColFlags] = true
	}
	if cols&ScanAnnot != 0 {
		need[ColAnnot] = true
	}
	if cols&ScanFOFl != 0 {
		need[ColFOFl] = true
	}
	if cols&ScanBytePos != 0 {
		need[ColBytePos] = true
	}
	if cols&ScanDisposition != 0 {
		need[ColDisposition] = true
	}
	if cols&ScanOptions != 0 {
		need[ColOptions] = true
	}
	if cols&ScanAttributes != 0 {
		need[ColAttributes] = true
	}
	if cols&ScanFsControl != 0 {
		need[ColFsControl] = true
	}
	if cols&ScanName != 0 {
		need[ColName] = true
	}
	return need
}

// blockVals holds one block's decoded columns in semantic domain:
// unsigned columns verbatim, signed/time columns as uint64(int64). The
// name column keeps the writer's shape: dense blobs in name, or — when
// the block was sparse-encoded — only the present (position, blob)
// pairs in namePos/nameBlobs, so a scan never materializes the zero
// rows of a mostly-unnamed block.
type blockVals struct {
	n    int
	u    [numColumns][]uint64
	name []byte // dense blobs (nameSparse false)

	nameSparse bool
	namePos    []int32 // ascending row positions bearing a name
	nameBlobs  []byte  // their blobs, NameLen bytes each
	nameCur    int     // record()'s monotone cursor into namePos
}

// zeroName is the blob of a row that carries no name.
var zeroName [tracefmt.NameLen]byte

// decodeBlockVals decodes the needed columns of one block, undoing the
// per-column transforms (zigzag, delta chains).
func (s *Segment) decodeBlockVals(br *blockReader, need *[numColumns]bool, bv *blockVals) error {
	bv.n = br.n
	// ColEnd's delta base is ColStart.
	if need[ColEnd] {
		need[ColStart] = true
	}
	for c := Column(0); c < numColumns; c++ {
		if !need[c] {
			bv.u[c] = nil
			continue
		}
		if c == ColName {
			if err := br.decodeNameVals(bv); err != nil {
				return err
			}
			continue
		}
		if cap(bv.u[c]) < br.n {
			bv.u[c] = make([]uint64, br.n)
		}
		bv.u[c] = bv.u[c][:br.n]
		if err := br.decodeInts(c, bv.u[c]); err != nil {
			return err
		}
		switch colSpecs[c].class {
		case classSigned:
			vs := bv.u[c]
			for i, u := range vs {
				vs[i] = uint64(unzigzag(u))
			}
		case classTime:
			vs := bv.u[c]
			prev := int64(0)
			for i, u := range vs {
				prev += unzigzag(u)
				vs[i] = uint64(prev)
			}
		}
	}
	// classDur second pass: ColEnd needs the reconstructed ColStart.
	if need[ColEnd] {
		starts := bv.u[ColStart]
		ends := bv.u[ColEnd]
		for i, u := range ends {
			ends[i] = uint64(int64(starts[i]) + unzigzag(u))
		}
	}
	return nil
}

// BlockScanner streams a column-projected scan block-at-a-time. Obtain
// one with Segment.Batches, call Next until it reports false (or an
// error) and Close when abandoning the scan early. The scanner holds a
// pooled decode scratch checked out of the segment; Next performs no
// per-block allocation once the batch and scratch capacities are warm.
type BlockScanner struct {
	seg      *Segment
	p        Predicate
	cols     ColumnSet
	mask     uint64
	wantArr  [256]bool
	haveWant bool
	need     [numColumns]bool
	idx      int
	sc       *decodeScratch
	start    time.Time
	done     bool
	scanned  int
	skipped  int
}

// Batches starts a streaming scan: blocks are skipped via zone maps,
// only the needed column payloads are decoded, and each surviving
// block's matching rows are appended to the caller's Batch by Next.
func (s *Segment) Batches(p Predicate, cols ColumnSet) BlockScanner {
	it := BlockScanner{seg: s, p: p, cols: cols, mask: p.kindMask(), start: time.Now()}
	for _, k := range p.Kinds {
		it.wantArr[byte(k)] = true
	}
	it.haveWant = len(p.Kinds) > 0
	it.need = scanCols(&p, cols)
	it.sc = s.acquireScratch()
	it.sc.br.sc = it.sc
	return it
}

// Next decodes the next zone-map-surviving block and appends its
// matching rows to b (call b.Reset first to stream block-at-a-time, or
// skip the Reset to accumulate a whole scan). It reports false when the
// segment is exhausted, releasing the scanner's scratch.
func (it *BlockScanner) Next(b *Batch) (bool, error) {
	if it.done {
		return false, nil
	}
	s := it.seg
	for it.idx < len(s.metas) {
		meta := &s.metas[it.idx]
		it.idx++
		if it.p.skip(it.mask, meta) {
			s.m.incSkipped()
			it.skipped++
			continue
		}
		s.m.incScanned()
		it.scanned++
		sc := it.sc
		if err := s.parseBlockInto(meta, &sc.br); err != nil {
			it.finish()
			return false, err
		}
		if err := s.decodeBlockVals(&sc.br, &it.need, &sc.bv); err != nil {
			it.finish()
			return false, err
		}
		it.appendBlock(b, &sc.bv)
		return true, nil
	}
	it.finish()
	return false, nil
}

// Close releases the scanner's pooled scratch. Safe to call more than
// once or after Next reported exhaustion.
func (it *BlockScanner) Close() { it.finish() }

// ScanStats is the per-scan block ledger: how many blocks the zone maps
// eliminated versus decoded. The global Metrics counters aggregate the
// same events across all scans; this is the single-scan view that span
// annotations and query responses attribute to one request.
type ScanStats struct {
	BlocksScanned int
	BlocksSkipped int
}

// Add accumulates another scan's ledger (the multi-segment case).
func (st *ScanStats) Add(o ScanStats) {
	st.BlocksScanned += o.BlocksScanned
	st.BlocksSkipped += o.BlocksSkipped
}

// Stats reports the blocks this scanner has skipped and decoded so far
// (complete once Next has reported false).
func (it *BlockScanner) Stats() ScanStats {
	return ScanStats{BlocksScanned: it.scanned, BlocksSkipped: it.skipped}
}

func (it *BlockScanner) finish() {
	if it.done {
		return
	}
	it.done = true
	if it.sc != nil {
		it.seg.releaseScratch(it.sc)
		it.sc = nil
	}
	it.seg.m.observeScan(it.start)
}

// integer admits every numeric column's element type. Converting the
// transform-domain uint64 by plain conversion T(u) truncates to T's
// width with two's-complement wraparound — bit-identical to the
// signed two-step forms (int32(int64(u)) and friends) for every width.
type integer interface {
	~int8 | ~uint8 | ~int16 | ~uint16 | ~int32 | ~uint32 | ~int64 | ~uint64
}

// extend grows s by n elements, returning the lengthened slice. With
// warm capacity this is a reslice — the zero-allocation steady state of
// a reused Batch.
func extend[T any](s []T, n int) []T {
	if tot := len(s) + n; tot <= cap(s) {
		return s[:tot]
	}
	ns := make([]T, len(s)+n, max(2*cap(s), len(s)+n))
	copy(ns, s)
	return ns
}

// gatherNum appends the selected (or, with sel nil, all) values of src
// to dst by direct integer conversion. Extending first and writing by
// index keeps the hot loop free of both append bookkeeping and the
// per-element indirect call a conversion closure would cost.
func gatherNum[T integer](dst []T, src []uint64, sel []int32) []T {
	if src == nil {
		return dst
	}
	n := len(dst)
	if sel == nil {
		dst = extend(dst, len(src))
		out := dst[n:]
		for i, u := range src {
			out[i] = T(u)
		}
		return dst
	}
	dst = extend(dst, len(sel))
	out := dst[n:]
	for i, r := range sel {
		out[i] = T(src[r])
	}
	return dst
}

// Grow reserves capacity for n more rows in every column cols selects,
// so a scan of known cardinality accumulates without re-growing (and
// re-copying) mid-scan.
func (b *Batch) Grow(cols ColumnSet, n int) {
	reserve := func(c ColumnSet, grow func()) {
		if cols&c != 0 {
			grow()
		}
	}
	reserve(ScanKind, func() { b.Kinds = extend(b.Kinds, n)[:len(b.Kinds)] })
	reserve(ScanStart, func() { b.Starts = extend(b.Starts, n)[:len(b.Starts)] })
	reserve(ScanEnd, func() { b.Ends = extend(b.Ends, n)[:len(b.Ends)] })
	reserve(ScanOffset, func() { b.Offsets = extend(b.Offsets, n)[:len(b.Offsets)] })
	reserve(ScanLength, func() { b.Lengths = extend(b.Lengths, n)[:len(b.Lengths)] })
	reserve(ScanReturned, func() { b.Returns = extend(b.Returns, n)[:len(b.Returns)] })
	reserve(ScanFileSize, func() { b.FileSizes = extend(b.FileSizes, n)[:len(b.FileSizes)] })
	reserve(ScanProc, func() { b.Procs = extend(b.Procs, n)[:len(b.Procs)] })
	reserve(ScanFileID, func() { b.FileIDs = extend(b.FileIDs, n)[:len(b.FileIDs)] })
	reserve(ScanStatus, func() { b.Statuses = extend(b.Statuses, n)[:len(b.Statuses)] })
	reserve(ScanFlags, func() { b.Flags = extend(b.Flags, n)[:len(b.Flags)] })
	reserve(ScanAnnot, func() { b.Annots = extend(b.Annots, n)[:len(b.Annots)] })
	reserve(ScanFOFl, func() { b.FOFls = extend(b.FOFls, n)[:len(b.FOFls)] })
	reserve(ScanBytePos, func() { b.BytePositions = extend(b.BytePositions, n)[:len(b.BytePositions)] })
	reserve(ScanDisposition, func() { b.Dispositions = extend(b.Dispositions, n)[:len(b.Dispositions)] })
	reserve(ScanOptions, func() { b.Options = extend(b.Options, n)[:len(b.Options)] })
	reserve(ScanAttributes, func() { b.Attributes = extend(b.Attributes, n)[:len(b.Attributes)] })
	reserve(ScanFsControl, func() { b.FsControls = extend(b.FsControls, n)[:len(b.FsControls)] })
	reserve(ScanName, func() { b.Names = extend(b.Names, n*tracefmt.NameLen)[:len(b.Names)] })
}

// AppendRecords transposes recs onto the end of b: every
// ScanAllNumeric column, as an unfiltered scan of the same stream would
// fill it, plus the rest fields and sparse names that complete each
// record. Records is its inverse. Names, the dense scan form, is left
// alone.
func (b *Batch) AppendRecords(recs []tracefmt.Record) {
	n, m := b.N, len(recs)
	b.N += m
	b.Kinds = extend(b.Kinds, m)
	b.Starts = extend(b.Starts, m)
	b.Ends = extend(b.Ends, m)
	b.Offsets = extend(b.Offsets, m)
	b.Lengths = extend(b.Lengths, m)
	b.Returns = extend(b.Returns, m)
	b.FileSizes = extend(b.FileSizes, m)
	b.Procs = extend(b.Procs, m)
	b.FileIDs = extend(b.FileIDs, m)
	b.Statuses = extend(b.Statuses, m)
	b.Flags = extend(b.Flags, m)
	b.Annots = extend(b.Annots, m)
	b.FOFls = extend(b.FOFls, m)
	b.BytePositions = extend(b.BytePositions, m)
	b.Dispositions = extend(b.Dispositions, m)
	b.Options = extend(b.Options, m)
	b.Attributes = extend(b.Attributes, m)
	b.FsControls = extend(b.FsControls, m)
	b.Majors = extend(b.Majors, m)
	b.Minors = extend(b.Minors, m)
	b.InfoClasses = extend(b.InfoClasses, m)
	for i := range recs {
		r, j := &recs[i], n+i
		b.Kinds[j] = r.Kind
		b.Starts[j] = r.Start
		b.Ends[j] = r.End
		b.Offsets[j] = r.Offset
		b.Lengths[j] = r.Length
		b.Returns[j] = r.Returned
		b.FileSizes[j] = r.FileSize
		b.Procs[j] = r.Proc
		b.FileIDs[j] = r.FileID
		b.Statuses[j] = r.Status
		b.Flags[j] = r.Flags
		b.Annots[j] = r.Annot
		b.FOFls[j] = r.FOFl
		b.BytePositions[j] = r.BytePos
		b.Dispositions[j] = r.Disposition
		b.Options[j] = r.Options
		b.Attributes[j] = r.Attributes
		b.FsControls[j] = r.FsControl
		b.Majors[j] = r.Major
		b.Minors[j] = r.Minor
		b.InfoClasses[j] = r.InfoClass
		if r.Name != zeroName {
			b.NameRows = append(b.NameRows, int32(j))
			b.NameBlobs = append(b.NameBlobs, r.Name[:]...)
		}
	}
}

// Records rebuilds whole records from a batch AppendRecords filled (or
// a Permuted copy of one), row by row: the inverse of AppendRecords.
func (b *Batch) Records() []tracefmt.Record {
	out := make([]tracefmt.Record, b.N)
	for i := range out {
		out[i] = tracefmt.Record{
			Kind:        b.Kinds[i],
			Major:       b.Majors[i],
			Minor:       b.Minors[i],
			Annot:       b.Annots[i],
			Flags:       b.Flags[i],
			FOFl:        b.FOFls[i],
			FileID:      b.FileIDs[i],
			Proc:        b.Procs[i],
			Status:      b.Statuses[i],
			Offset:      b.Offsets[i],
			Length:      b.Lengths[i],
			Returned:    b.Returns[i],
			FileSize:    b.FileSizes[i],
			BytePos:     b.BytePositions[i],
			Disposition: b.Dispositions[i],
			Options:     b.Options[i],
			Attributes:  b.Attributes[i],
			InfoClass:   b.InfoClasses[i],
			FsControl:   b.FsControls[i],
			Start:       b.Starts[i],
			End:         b.Ends[i],
		}
	}
	for k, r := range b.NameRows {
		copy(out[r].Name[:], b.NameBlobs[k*tracefmt.NameLen:])
	}
	return out
}

// Permuted returns an exactly-sized copy of b whose row i is row
// perm[i] of b (perm nil: a plain copy). It carries every column but
// the dense Names; a column empty in b is nil in the copy.
func (b *Batch) Permuted(perm []int32) *Batch {
	out := &Batch{
		N:             b.N,
		Kinds:         permute(b.Kinds, perm),
		Starts:        permute(b.Starts, perm),
		Ends:          permute(b.Ends, perm),
		Offsets:       permute(b.Offsets, perm),
		Lengths:       permute(b.Lengths, perm),
		Returns:       permute(b.Returns, perm),
		FileSizes:     permute(b.FileSizes, perm),
		Procs:         permute(b.Procs, perm),
		FileIDs:       permute(b.FileIDs, perm),
		Statuses:      permute(b.Statuses, perm),
		Flags:         permute(b.Flags, perm),
		Annots:        permute(b.Annots, perm),
		FOFls:         permute(b.FOFls, perm),
		BytePositions: permute(b.BytePositions, perm),
		Dispositions:  permute(b.Dispositions, perm),
		Options:       permute(b.Options, perm),
		Attributes:    permute(b.Attributes, perm),
		FsControls:    permute(b.FsControls, perm),
		Majors:        permute(b.Majors, perm),
		Minors:        permute(b.Minors, perm),
		InfoClasses:   permute(b.InfoClasses, perm),
	}
	if len(b.NameRows) == 0 {
		return out
	}
	if perm == nil {
		out.NameRows = slices.Clone(b.NameRows)
		out.NameBlobs = slices.Clone(b.NameBlobs)
		return out
	}
	// Walk the new rows in order, so the moved names come out ascending.
	at := make([]int32, b.N) // old row → 1 + its index in NameRows; 0: unnamed
	for k, r := range b.NameRows {
		at[r] = int32(k + 1)
	}
	out.NameRows = make([]int32, 0, len(b.NameRows))
	out.NameBlobs = make([]byte, 0, len(b.NameBlobs))
	for i, p := range perm {
		if k := int(at[p]); k != 0 {
			out.NameRows = append(out.NameRows, int32(i))
			out.NameBlobs = append(out.NameBlobs, b.NameBlobs[(k-1)*tracefmt.NameLen:k*tracefmt.NameLen]...)
		}
	}
	return out
}

// permute builds the reordered (perm non-nil) or verbatim (perm nil)
// exactly-sized copy of one column vector. An empty column comes out
// nil, so a column the batch was not filled with — nil, or truncated by
// Reset on a reused batch — passes through. Sequential writes with
// near-identity reads keep the pass prefetch-friendly on the
// near-sorted streams the trace buffers produce.
func permute[T any](src []T, perm []int32) []T {
	if len(src) == 0 {
		return nil
	}
	out := make([]T, len(src))
	if perm == nil {
		copy(out, src)
		return out
	}
	for i, p := range perm {
		out[i] = src[p]
	}
	return out
}

// appendBlock folds one decoded block into the batch: a single selection
// pass over the filter columns, then one tight append loop per projected
// column — the vectorized inner shape of the scan path.
func (it *BlockScanner) appendBlock(b *Batch, bv *blockVals) {
	cols := it.cols
	var sel []int32
	filtered := it.haveWant || it.p.MinStart > 0 || it.p.MaxStart > 0
	if filtered {
		var want *[256]bool
		if it.haveWant {
			want = &it.wantArr
		}
		kinds := bv.u[ColKind]
		starts := bv.u[ColStart]
		sel = it.sc.sel[:0]
		for r := 0; r < bv.n; r++ {
			var kind uint64
			var st int64
			if kinds != nil {
				kind = kinds[r]
			}
			if starts != nil {
				st = int64(starts[r])
			}
			if it.p.matchRow(want, kind, st) {
				sel = append(sel, int32(r))
			}
		}
		it.sc.sel = sel
		b.N += len(sel)
		if len(sel) == 0 {
			return
		}
	} else {
		b.N += bv.n
	}
	if cols&ScanKind != 0 {
		b.Kinds = gatherNum(b.Kinds, bv.u[ColKind], sel)
	}
	if cols&ScanStart != 0 {
		b.Starts = gatherNum(b.Starts, bv.u[ColStart], sel)
	}
	if cols&ScanEnd != 0 {
		b.Ends = gatherNum(b.Ends, bv.u[ColEnd], sel)
	}
	if cols&ScanOffset != 0 {
		b.Offsets = gatherNum(b.Offsets, bv.u[ColOffset], sel)
	}
	if cols&ScanLength != 0 {
		b.Lengths = gatherNum(b.Lengths, bv.u[ColLength], sel)
	}
	if cols&ScanReturned != 0 {
		b.Returns = gatherNum(b.Returns, bv.u[ColReturned], sel)
	}
	if cols&ScanFileSize != 0 {
		b.FileSizes = gatherNum(b.FileSizes, bv.u[ColFileSize], sel)
	}
	if cols&ScanProc != 0 {
		b.Procs = gatherNum(b.Procs, bv.u[ColProc], sel)
	}
	if cols&ScanFileID != 0 {
		b.FileIDs = gatherNum(b.FileIDs, bv.u[ColFileID], sel)
	}
	if cols&ScanStatus != 0 {
		b.Statuses = gatherNum(b.Statuses, bv.u[ColStatus], sel)
	}
	if cols&ScanFlags != 0 {
		b.Flags = gatherNum(b.Flags, bv.u[ColFlags], sel)
	}
	if cols&ScanAnnot != 0 {
		b.Annots = gatherNum(b.Annots, bv.u[ColAnnot], sel)
	}
	if cols&ScanFOFl != 0 {
		b.FOFls = gatherNum(b.FOFls, bv.u[ColFOFl], sel)
	}
	if cols&ScanBytePos != 0 {
		b.BytePositions = gatherNum(b.BytePositions, bv.u[ColBytePos], sel)
	}
	if cols&ScanDisposition != 0 {
		b.Dispositions = gatherNum(b.Dispositions, bv.u[ColDisposition], sel)
	}
	if cols&ScanOptions != 0 {
		b.Options = gatherNum(b.Options, bv.u[ColOptions], sel)
	}
	if cols&ScanAttributes != 0 {
		b.Attributes = gatherNum(b.Attributes, bv.u[ColAttributes], sel)
	}
	if cols&ScanFsControl != 0 {
		b.FsControls = gatherNum(b.FsControls, bv.u[ColFsControl], sel)
	}
	if cols&ScanName != 0 {
		const nl = tracefmt.NameLen
		switch {
		case !bv.nameSparse && sel == nil:
			b.Names = append(b.Names, bv.name...)
		case !bv.nameSparse:
			for _, r := range sel {
				b.Names = append(b.Names, bv.name[int(r)*nl:(int(r)+1)*nl]...)
			}
		case sel == nil:
			// Merge the sparse (position, blob) pairs against every row.
			j := 0
			for r := 0; r < bv.n; r++ {
				if j < len(bv.namePos) && int(bv.namePos[j]) == r {
					b.Names = append(b.Names, bv.nameBlobs[j*nl:(j+1)*nl]...)
					j++
				} else {
					b.Names = append(b.Names, zeroName[:]...)
				}
			}
		default:
			// Both sel and namePos ascend: a two-pointer merge pairs each
			// selected row with its blob, if any.
			j := 0
			for _, r := range sel {
				for j < len(bv.namePos) && bv.namePos[j] < r {
					j++
				}
				if j < len(bv.namePos) && bv.namePos[j] == r {
					b.Names = append(b.Names, bv.nameBlobs[j*nl:(j+1)*nl]...)
				} else {
					b.Names = append(b.Names, zeroName[:]...)
				}
			}
		}
	}
}

// ScanColumns runs a column-projected scan: blocks are skipped via zone
// maps, only the needed column payloads are decoded, and matching rows
// are gathered into a Batch in stream order. It is the accumulate-all
// form of Batches.
func (s *Segment) ScanColumns(p Predicate, cols ColumnSet) (*Batch, error) {
	b, _, err := s.ScanColumnsStats(p, cols)
	return b, err
}

// ScanColumnsStats is ScanColumns plus the per-scan block ledger, for
// callers that attribute pushdown effectiveness to a single request.
func (s *Segment) ScanColumnsStats(p Predicate, cols ColumnSet) (*Batch, ScanStats, error) {
	it := s.Batches(p, cols)
	defer it.Close()
	out := &Batch{}
	if len(p.Kinds) == 0 && p.MinStart == 0 && p.MaxStart == 0 {
		// Every row matches: reserve the exact cardinality up front so
		// the accumulate loop never re-grows a column.
		out.Grow(cols, s.count)
	}
	for {
		ok, err := it.Next(out)
		if err != nil {
			return nil, it.Stats(), err
		}
		if !ok {
			return out, it.Stats(), nil
		}
	}
}

// ScanRecords materializes full records matching the predicate, in
// stream order. Pushdown still applies at block granularity: skipped
// blocks decode nothing.
func (s *Segment) ScanRecords(p Predicate) ([]tracefmt.Record, error) {
	start := time.Now()
	defer func() { s.m.observeScan(start) }()
	mask := p.kindMask()
	want := p.kindSet()
	var need [numColumns]bool
	for c := range need {
		need[c] = true
	}
	var out []tracefmt.Record
	if mask == 0 && p.MinStart == 0 && p.MaxStart == 0 {
		out = make([]tracefmt.Record, 0, s.count)
	}
	sc := s.acquireScratch()
	defer s.releaseScratch(sc)
	sc.br.sc = sc
	bv := &sc.bv
	for i := range s.metas {
		meta := &s.metas[i]
		if p.skip(mask, meta) {
			s.m.incSkipped()
			continue
		}
		s.m.incScanned()
		if err := s.parseBlockInto(meta, &sc.br); err != nil {
			return nil, err
		}
		if err := s.decodeBlockVals(&sc.br, &need, bv); err != nil {
			return nil, err
		}
		for r := 0; r < bv.n; r++ {
			if !p.matchRow(want, bv.u[ColKind][r], int64(bv.u[ColStart][r])) {
				continue
			}
			out = append(out, bv.record(r))
		}
	}
	return out, nil
}

// ReadAll materializes the whole segment — the row-equivalence path.
// The result has exactly Records() entries in original stream order.
func (s *Segment) ReadAll() ([]tracefmt.Record, error) {
	recs, err := s.ScanRecords(Predicate{})
	if err != nil {
		return nil, err
	}
	if len(recs) != s.count {
		return nil, corruptf("decoded %d records, footer says %d", len(recs), s.count)
	}
	return recs, nil
}

// record rebuilds row r of the block from its decoded columns.
func (bv *blockVals) record(r int) tracefmt.Record {
	rec := tracefmt.Record{
		Kind:        tracefmt.EventKind(bv.u[ColKind][r]),
		Major:       types.MajorFunction(bv.u[ColMajor][r]),
		Minor:       types.MinorFunction(bv.u[ColMinor][r]),
		Annot:       uint8(bv.u[ColAnnot][r]),
		Flags:       types.IrpFlags(bv.u[ColFlags][r]),
		FOFl:        types.FileObjectFlags(bv.u[ColFOFl][r]),
		FileID:      types.FileObjectID(bv.u[ColFileID][r]),
		Proc:        uint32(bv.u[ColProc][r]),
		Status:      types.Status(int64(bv.u[ColStatus][r])),
		Offset:      int64(bv.u[ColOffset][r]),
		Length:      int32(int64(bv.u[ColLength][r])),
		Returned:    int32(int64(bv.u[ColReturned][r])),
		FileSize:    int64(bv.u[ColFileSize][r]),
		BytePos:     int64(bv.u[ColBytePos][r]),
		Disposition: types.CreateDisposition(bv.u[ColDisposition][r]),
		Options:     types.CreateOptions(bv.u[ColOptions][r]),
		Attributes:  types.FileAttributes(bv.u[ColAttributes][r]),
		InfoClass:   types.SetInfoClass(bv.u[ColInfoClass][r]),
		FsControl:   types.FsControlCode(bv.u[ColFsControl][r]),
		Start:       sim.Time(bv.u[ColStart][r]),
		End:         sim.Time(bv.u[ColEnd][r]),
	}
	if !bv.nameSparse {
		copy(rec.Name[:], bv.name[r*tracefmt.NameLen:(r+1)*tracefmt.NameLen])
		return rec
	}
	// Callers rebuild rows in ascending r within a block, so a monotone
	// cursor finds the sparse blob (records without one keep the zero
	// name the struct literal left in place).
	for bv.nameCur < len(bv.namePos) && int(bv.namePos[bv.nameCur]) < r {
		bv.nameCur++
	}
	if bv.nameCur < len(bv.namePos) && int(bv.namePos[bv.nameCur]) == r {
		copy(rec.Name[:], bv.nameBlobs[bv.nameCur*tracefmt.NameLen:(bv.nameCur+1)*tracefmt.NameLen])
	}
	return rec
}
