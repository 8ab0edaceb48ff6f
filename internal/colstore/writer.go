package colstore

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"sync"
	"time"

	"repro/internal/tracefmt"
)

// Options parameterises a Writer.
type Options struct {
	// BlockRecords is the records-per-block ceiling (default
	// DefaultBlockRecords). Smaller blocks give finer zone-map skipping
	// at more per-block overhead.
	BlockRecords int
	// Metrics, when set, counts segments/blocks/bytes written and times
	// block encodes. Nil is fully supported.
	Metrics *Metrics
	// NoCompress skips the per-column DEFLATE wrapper, storing every
	// payload base-encoded. Segments grow, but scans decode them with
	// zero steady-state allocation: stdlib flate rebuilds Huffman link
	// tables on every dynamic block, which is the one per-block
	// allocation the pooled decode scratch cannot absorb.
	NoCompress bool
}

func (o Options) blockRecords() int {
	if o.BlockRecords <= 0 {
		return DefaultBlockRecords
	}
	if o.BlockRecords > maxBlockRecords {
		return maxBlockRecords
	}
	return o.BlockRecords
}

// Summary describes one finished segment.
type Summary struct {
	Records int
	Blocks  int
	Bytes   int64
	// SHA is the SHA-256 of the logical record stream — the exact bytes
	// tracefmt.WriteAll would have produced — the equivalence proof
	// against the row corpus.
	SHA [sha256.Size]byte
}

// Writer appends records to one machine's segment. Records accumulate
// into blocks; Close flushes the final partial block and the footer.
type Writer struct {
	w    io.Writer
	opts Options

	pend    []tracefmt.Record
	metas   []blockMeta
	off     uint64
	n       int
	sha     hash.Hash
	shaBuf  []byte
	scratch *encScratch // from encPool between the first block and Close
	wrote   bool
	closed  bool
	err     error
}

// NewWriter starts a segment on w.
func NewWriter(w io.Writer, opts Options) *Writer {
	return &Writer{w: w, opts: opts, sha: sha256.New()}
}

// RowStreamSHA digests a record slice exactly as the row layout stores
// it: the concatenated tracefmt encodings, the same bytes a segment
// footer's SHA-256 covers. It is the cross-layout equivalence check —
// digest the inflated row stream, compare against the segment footer.
func RowStreamSHA(recs []tracefmt.Record) [sha256.Size]byte {
	h := sha256.New()
	var buf []byte
	for i := range recs {
		buf = recs[i].Encode(buf[:0])
		h.Write(buf)
	}
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

func (w *Writer) fail(err error) error {
	if w.err == nil {
		w.err = err
	}
	return w.err
}

// Append buffers records into the segment, flushing full blocks.
func (w *Writer) Append(recs []tracefmt.Record) error {
	rest, err := w.appendBlocks(recs)
	if err != nil {
		return err
	}
	w.pend = append(w.pend, rest...)
	return nil
}

// appendBlocks digests recs and encodes every block they complete, the
// whole ones straight from recs rather than through the pending
// buffer. It returns the records past the last complete block, for the
// caller to keep pending.
func (w *Writer) appendBlocks(recs []tracefmt.Record) ([]tracefmt.Record, error) {
	if w.err != nil {
		return nil, w.err
	}
	if w.closed {
		return nil, w.fail(fmt.Errorf("colstore: append after Close"))
	}
	for i := range recs {
		w.shaBuf = recs[i].Encode(w.shaBuf[:0])
		w.sha.Write(w.shaBuf)
	}
	w.n += len(recs)
	limit := w.opts.blockRecords()
	if len(w.pend) > 0 {
		k := min(limit-len(w.pend), len(recs))
		w.pend = append(w.pend, recs[:k]...)
		recs = recs[k:]
		if len(w.pend) < limit {
			return nil, nil
		}
		if err := w.flushBlock(w.pend); err != nil {
			return nil, w.fail(err)
		}
		w.pend = w.pend[:0]
	}
	for len(recs) >= limit {
		if err := w.flushBlock(recs[:limit]); err != nil {
			return nil, w.fail(err)
		}
		recs = recs[limit:]
	}
	return recs, nil
}

// writeAll writes b fully, tracking the segment offset.
func (w *Writer) writeAll(b []byte) error {
	n, err := w.w.Write(b)
	w.off += uint64(n)
	if err == nil && n < len(b) {
		err = io.ErrShortWrite
	}
	return err
}

// header writes the leading magic before the first block or the footer.
func (w *Writer) header() error {
	if w.wrote {
		return nil
	}
	w.wrote = true
	return w.writeAll([]byte(Magic))
}

func (w *Writer) flushBlock(recs []tracefmt.Record) error {
	if err := w.header(); err != nil {
		return err
	}
	start := time.Now()
	if w.scratch == nil {
		w.scratch = encPool.Get().(*encScratch)
	}
	payload, meta := encodeBlock(recs, w.scratch, w.opts.NoCompress)
	meta.offset = w.off
	w.metas = append(w.metas, meta)
	if err := w.writeAll(payload); err != nil {
		return err
	}
	m := w.opts.Metrics
	m.incBlockWritten(len(payload))
	m.observeEncode(start, len(recs))
	return nil
}

// Close flushes the final block and the footer and returns the summary.
// Closing an empty writer yields a valid zero-record segment.
func (w *Writer) Close() (Summary, error) {
	if w.err != nil {
		return Summary{}, w.err
	}
	if w.closed {
		return Summary{}, w.fail(fmt.Errorf("colstore: Close twice"))
	}
	w.closed = true
	if len(w.pend) > 0 {
		if err := w.flushBlock(w.pend); err != nil {
			return Summary{}, err
		}
		w.pend = nil
	}
	if w.scratch != nil {
		encPool.Put(w.scratch)
		w.scratch = nil
	}
	if err := w.header(); err != nil {
		return Summary{}, w.fail(err)
	}
	var sum Summary
	sum.Records = w.n
	sum.Blocks = len(w.metas)
	w.sha.Sum(sum.SHA[:0])

	foot := make([]byte, 0, 4+8+4+sha256.Size+len(w.metas)*blockMetaSize+4+len(Magic))
	foot = binary.LittleEndian.AppendUint32(foot, formatVersion)
	foot = binary.LittleEndian.AppendUint64(foot, uint64(w.n))
	foot = binary.LittleEndian.AppendUint32(foot, uint32(len(w.metas)))
	foot = append(foot, sum.SHA[:]...)
	for _, m := range w.metas {
		foot = m.append(foot)
	}
	footLen := len(foot)
	foot = binary.LittleEndian.AppendUint32(foot, uint32(footLen))
	foot = append(foot, Magic...)
	if err := w.writeAll(foot); err != nil {
		return Summary{}, w.fail(err)
	}
	sum.Bytes = int64(w.off)
	w.opts.Metrics.incSegmentsWritten()
	return sum, nil
}

// EncodeSegment encodes a whole record slice into one in-memory segment.
func EncodeSegment(recs []tracefmt.Record, opts Options) ([]byte, Summary, error) {
	var buf bytes.Buffer
	buf.Grow(len(recs)*24 + 1024)
	w := NewWriter(&buf, opts)
	// The whole stream is at hand, so even the final partial block is
	// encoded from recs: the blocks Append and Close would cut, without
	// staging any record in the pending buffer.
	tail, err := w.appendBlocks(recs)
	if err != nil {
		return nil, Summary{}, err
	}
	if len(tail) > 0 {
		if err := w.flushBlock(tail); err != nil {
			return nil, Summary{}, w.fail(err)
		}
	}
	sum, err := w.Close()
	if err != nil {
		return nil, Summary{}, err
	}
	return buf.Bytes(), sum, nil
}

// encScratch recycles the per-block encode buffers across blocks.
type encScratch struct {
	vals  [numColumns][]uint64
	blob  []byte
	cand  []byte
	cand2 []byte
	dict  map[uint64]uint32
	flate *flate.Writer
	fbuf  bytes.Buffer
	out   []byte // the encoded block
}

// encPool recycles encode scratch across writers: a corpus is encoded
// as one segment per machine, and without the pool each segment would
// allocate its own block-sized buffers.
var encPool = sync.Pool{New: func() any { return new(encScratch) }}

// extract pulls every column of the block into its transform domain:
// verbatim for unsigned columns, zigzag for signed ones, a block-local
// zigzag delta chain for the start timestamps, and a per-record
// start→end delta for the end timestamps.
func (sc *encScratch) extract(recs []tracefmt.Record) {
	n := len(recs)
	for c := 0; c < NumColumns-1; c++ { // ColName handled as a blob below
		if cap(sc.vals[c]) < n {
			sc.vals[c] = make([]uint64, n)
		}
		sc.vals[c] = sc.vals[c][:n]
	}
	v := &sc.vals
	prevStart := int64(0)
	for i := range recs {
		r := &recs[i]
		v[ColKind][i] = uint64(r.Kind)
		v[ColMajor][i] = uint64(r.Major)
		v[ColMinor][i] = uint64(r.Minor)
		v[ColAnnot][i] = uint64(r.Annot)
		v[ColFlags][i] = uint64(r.Flags)
		v[ColFOFl][i] = uint64(r.FOFl)
		v[ColFileID][i] = uint64(r.FileID)
		v[ColProc][i] = uint64(r.Proc)
		v[ColStatus][i] = zigzag(int64(r.Status))
		v[ColOffset][i] = zigzag(r.Offset)
		v[ColLength][i] = zigzag(int64(r.Length))
		v[ColReturned][i] = zigzag(int64(r.Returned))
		v[ColFileSize][i] = zigzag(r.FileSize)
		v[ColBytePos][i] = zigzag(r.BytePos)
		v[ColDisposition][i] = uint64(r.Disposition)
		v[ColOptions][i] = uint64(r.Options)
		v[ColAttributes][i] = uint64(r.Attributes)
		v[ColInfoClass][i] = uint64(r.InfoClass)
		v[ColFsControl][i] = uint64(r.FsControl)
		v[ColStart][i] = zigzag(int64(r.Start) - prevStart)
		prevStart = int64(r.Start)
		v[ColEnd][i] = zigzag(int64(r.End) - int64(r.Start))
	}
	sc.blob = sc.blob[:0]
	for i := range recs {
		sc.blob = append(sc.blob, recs[i].Name[:]...)
	}
}

// encodeInts picks the smallest applicable base encoding for a value
// column: raw bytes when every value fits one, a dictionary when the
// column repeats, plain uvarints otherwise. Deterministic: candidates are
// sized exactly and ties resolve to the lower tag.
func (sc *encScratch) encodeInts(vals []uint64) (tag byte, payload []byte) {
	// Candidate sizes without materializing each encoding.
	rawOK := true
	varintSize := 0
	if sc.dict == nil {
		sc.dict = make(map[uint64]uint32, 64)
	} else {
		clear(sc.dict)
	}
	dictValsSize := 0
	for _, u := range vals {
		if u > 0xff {
			rawOK = false
		}
		varintSize += uvarintLen(u)
		if _, ok := sc.dict[u]; !ok {
			sc.dict[u] = uint32(len(sc.dict))
			dictValsSize += uvarintLen(u)
		}
	}
	distinct := len(sc.dict)
	// Dict payload: count + values + indexes (1 byte when the dictionary
	// fits a byte, uvarint otherwise).
	dictSize := uvarintLen(uint64(distinct)) + dictValsSize
	if distinct <= 256 {
		dictSize += len(vals)
	} else {
		for _, u := range vals {
			dictSize += uvarintLen(uint64(sc.dict[u]))
		}
	}

	best := encUvarint
	bestSize := varintSize
	if rawOK && len(vals) <= bestSize {
		best, bestSize = encRaw, len(vals)
	}
	if dictSize < bestSize {
		best, bestSize = encDict, dictSize
	}

	out := sc.cand[:0]
	switch best {
	case encRaw:
		for _, u := range vals {
			out = append(out, byte(u))
		}
	case encUvarint:
		for _, u := range vals {
			out = binary.AppendUvarint(out, u)
		}
	case encDict:
		out = binary.AppendUvarint(out, uint64(distinct))
		// Dictionary values in first-appearance order (the index order the
		// map assigned), reconstructed by a second pass for determinism.
		clear(sc.dict)
		for _, u := range vals {
			if _, ok := sc.dict[u]; !ok {
				sc.dict[u] = uint32(len(sc.dict))
				out = binary.AppendUvarint(out, u)
			}
		}
		if distinct <= 256 {
			for _, u := range vals {
				out = append(out, byte(sc.dict[u]))
			}
		} else {
			for _, u := range vals {
				out = binary.AppendUvarint(out, uint64(sc.dict[u]))
			}
		}
	}
	sc.cand = out
	return best, out
}

// encodeName picks the name-column encoding: the raw blob, or the sparse
// form when few enough records carry a name that listing (position,
// blob) pairs is strictly smaller. Deterministic: sizes are exact and
// the tie resolves to raw.
func (sc *encScratch) encodeName(n int) (tag byte, payload []byte) {
	sparseSize := 0
	k := 0
	prev := -1
	for i := 0; i < n; i++ {
		blob := sc.blob[i*tracefmt.NameLen : (i+1)*tracefmt.NameLen]
		if isZero(blob) {
			continue
		}
		gap := i - prev
		if k == 0 {
			gap = i // first position is absolute
		}
		sparseSize += uvarintLen(uint64(gap)) + tracefmt.NameLen
		prev = i
		k++
	}
	sparseSize += uvarintLen(uint64(k))
	if sparseSize >= len(sc.blob) {
		return encRaw, sc.blob
	}
	out := sc.cand2[:0]
	out = binary.AppendUvarint(out, uint64(k))
	prev = -1
	first := true
	for i := 0; i < n; i++ {
		if isZero(sc.blob[i*tracefmt.NameLen : (i+1)*tracefmt.NameLen]) {
			continue
		}
		if first {
			out = binary.AppendUvarint(out, uint64(i))
			first = false
		} else {
			out = binary.AppendUvarint(out, uint64(i-prev))
		}
		prev = i
	}
	for i := 0; i < n; i++ {
		blob := sc.blob[i*tracefmt.NameLen : (i+1)*tracefmt.NameLen]
		if !isZero(blob) {
			out = append(out, blob...)
		}
	}
	sc.cand2 = out
	return encNameSparse, out
}

func isZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// deflate returns the DEFLATE form of p (BestSpeed, matching the row
// store's compressor) or nil when compression would not shrink it.
func (sc *encScratch) deflate(p []byte) []byte {
	sc.fbuf.Reset()
	if sc.flate == nil {
		zw, err := flate.NewWriter(&sc.fbuf, flate.BestSpeed)
		if err != nil {
			return nil
		}
		sc.flate = zw
	} else {
		sc.flate.Reset(&sc.fbuf)
	}
	if _, err := sc.flate.Write(p); err != nil {
		return nil
	}
	if err := sc.flate.Close(); err != nil {
		return nil
	}
	if sc.fbuf.Len() >= len(p) {
		return nil
	}
	return sc.fbuf.Bytes()
}

// encodeBlock serialises one block: u32 record count, then per column a
// tag byte, a u32 payload length and the payload. The result lives in
// sc until the next encodeBlock on it.
func encodeBlock(recs []tracefmt.Record, sc *encScratch, noCompress bool) ([]byte, blockMeta) {
	sc.extract(recs)
	out := binary.LittleEndian.AppendUint32(sc.out[:0], uint32(len(recs)))
	for c := Column(0); c < numColumns; c++ {
		var tag byte
		var payload []byte
		if c == ColName {
			tag, payload = sc.encodeName(len(recs))
		} else {
			tag, payload = sc.encodeInts(sc.vals[c])
		}
		if !noCompress {
			if fl := sc.deflate(payload); fl != nil {
				tag |= encFlateBit
				payload = fl
			}
		}
		out = append(out, tag)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
		out = append(out, payload...)
	}

	meta := blockMeta{
		length: uint32(len(out)),
		count:  uint32(len(recs)),
		crc:    crc32.ChecksumIEEE(out),
	}
	for i := range recs {
		s := int64(recs[i].Start)
		if i == 0 || s < meta.minStart {
			meta.minStart = s
		}
		if i == 0 || s > meta.maxStart {
			meta.maxStart = s
		}
		meta.kindBits |= kindBit(recs[i].Kind)
	}
	sc.out = out
	return out, meta
}

func uvarintLen(u uint64) int {
	n := 1
	for u >= 0x80 {
		u >>= 7
		n++
	}
	return n
}
