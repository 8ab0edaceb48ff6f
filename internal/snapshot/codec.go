package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"os"
	"strings"

	"repro/internal/sim"
)

// The on-disk form is the compact pre-order record sequence of §3.1
// (FSSNAP01, little-endian, varints as in encoding/binary):
//
//	magic    "FSSNAP01"
//	header   machine, volume (uvarint length + bytes); taken_at (varint);
//	         record count; total name bytes (uvarints)
//	records  depth (uvarint); flags (one byte, bit 0 = directory);
//	         size, created, modified, accessed (varints);
//	         directories only: files, subdirectories (varints);
//	         name (uvarint length + bytes)
//	trailer  CRC-32 (IEEE) of every preceding byte
const magic = "FSSNAP01"

// flagDir marks a directory record; every other flag bit must be zero.
const flagDir = 1

// minRecordBytes is the smallest encoded record: one byte each for the
// depth, the flags, the size, the three times and an empty name's length.
const minRecordBytes = 7

// ErrCorrupt reports a snapshot that fails its format checks.
var ErrCorrupt = errors.New("snapshot: corrupt")

// Write writes the snapshot's file image to w in one call: the bytes
// Take or New encoded, or those Decode was given, unchanged.
func (s *Snapshot) Write(w io.Writer) error {
	_, err := w.Write(s.file)
	return err
}

// appendRecord appends r's encoding to b.
func appendRecord(b []byte, r *WalkRecord) []byte {
	b = binary.AppendUvarint(b, uint64(r.Depth))
	if r.IsDir {
		b = append(b, flagDir)
	} else {
		b = append(b, 0)
	}
	b = binary.AppendVarint(b, r.Size)
	b = binary.AppendVarint(b, int64(r.Created))
	b = binary.AppendVarint(b, int64(r.LastModified))
	b = binary.AppendVarint(b, int64(r.LastAccessed))
	if r.IsDir {
		b = binary.AppendVarint(b, int64(r.NumFiles))
		b = binary.AppendVarint(b, int64(r.NumSubdirs))
	}
	return appendString(b, r.Name)
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// recordSize is the length of appendRecord's encoding of r.
func recordSize(r *WalkRecord) int {
	n := uvarintSize(uint64(r.Depth)) + 1 + varintSize(r.Size) + varintSize(int64(r.Created)) +
		varintSize(int64(r.LastModified)) + varintSize(int64(r.LastAccessed)) + stringSize(r.Name)
	if r.IsDir {
		n += varintSize(int64(r.NumFiles)) + varintSize(int64(r.NumSubdirs))
	}
	return n
}

func uvarintSize(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// varintSize is the length of a varint, zig-zag encoded as
// binary.AppendVarint encodes it.
func varintSize(v int64) int { return uvarintSize(uint64(v<<1) ^ uint64(v>>63)) }

func stringSize(s string) int { return uvarintSize(uint64(len(s))) + len(s) }

// encoder builds one image in a buffer of its exact size, from two
// passes over the same records: the first tallies them (b is nil), begin
// then writes the header, the second appends each record, and seal
// appends the CRC. An encoder that stays on its caller's stack keeps the
// per-record stores free of write barriers.
type encoder struct {
	count, nameBytes, recBytes int
	b                          []byte
	head                       int // header length, where the records start
}

func (e *encoder) add(r *WalkRecord) {
	if e.b == nil {
		e.count++
		e.nameBytes += len(r.Name)
		e.recBytes += recordSize(r)
		return
	}
	e.b = appendRecord(e.b, r)
}

func (e *encoder) begin(machine, vol string, takenAt sim.Time) {
	e.head = len(magic) + stringSize(machine) + stringSize(vol) + varintSize(int64(takenAt)) +
		uvarintSize(uint64(e.count)) + uvarintSize(uint64(e.nameBytes))
	b := make([]byte, 0, e.head+e.recBytes+crc32.Size)
	b = append(b, magic...)
	b = appendString(b, machine)
	b = appendString(b, vol)
	b = binary.AppendVarint(b, int64(takenAt))
	b = binary.AppendUvarint(b, uint64(e.count))
	e.b = binary.AppendUvarint(b, uint64(e.nameBytes))
}

// seal appends the CRC and returns the snapshot, the value Decode
// returns for the image.
func (e *encoder) seal(machine, vol string, takenAt sim.Time) *Snapshot {
	b := binary.LittleEndian.AppendUint32(e.b, crc32.ChecksumIEEE(e.b))
	return &Snapshot{
		Machine: machine, Volume: vol, TakenAt: takenAt,
		file: b, recs: b[e.head : len(b)-crc32.Size],
		count: e.count, nameBytes: e.nameBytes,
	}
}

// Decode checks one snapshot in the binary format, as Take and New encode
// it, and reads its header: the magic, the CRC and the header's counts,
// each bounded by the input still unread, so a corrupt file cannot ask
// for more memory than its own size implies. The records stay encoded
// in data, which the snapshot keeps (the caller must not modify it), and
// Each parses them.
func Decode(data []byte) (*Snapshot, error) {
	if len(data) < len(magic)+4 || string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: not an %s snapshot", ErrCorrupt, magic)
	}
	body := data[:len(data)-4]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(data[len(body):]) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	d := decoder{buf: body[len(magic):]}
	s := &Snapshot{
		Machine: string(d.bytes("machine")),
		Volume:  string(d.bytes("volume")),
		TakenAt: sim.Time(d.varint("taken_at")),
	}
	s.count = d.count(minRecordBytes, "record count")
	s.nameBytes = d.count(1, "name bytes")
	if d.err != nil {
		return nil, d.err
	}
	s.file, s.recs = data, d.buf
	return s, nil
}

// ReadFile reads and decodes the snapshot file at path. Its errors, and
// those Each finds later in its records, name the path.
func ReadFile(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	s.source = path
	return s, nil
}

// Each calls fn with every record in walk order, parsed from the image
// and put through every record-level check of the format. The record
// passed is reused from one call to the next, so fn must copy what it
// keeps past its return (a Name it keeps stays valid: every name is
// sliced from one arena string of the header's name bytes, so a pass
// costs two allocations however many records it holds). The first
// failure stops the pass and is returned, naming the file the snapshot
// was read from; fn has then seen only the records before it, so a
// caller discards what it built.
func (s *Snapshot) Each(fn func(*WalkRecord)) error {
	d := decoder{buf: s.recs}
	var arena strings.Builder
	arena.Grow(s.nameBytes)
	var r WalkRecord
	for i := 0; i < s.count; i++ {
		if depth := d.uvarint("depth"); depth <= math.MaxInt {
			r.Depth = int(depth)
		} else {
			d.fail("depth")
		}
		switch flags := d.byte("flags"); flags {
		case 0:
			r.IsDir = false
		case flagDir:
			r.IsDir = true
		default:
			d.fail("flags")
		}
		r.Size = d.varint("size")
		r.Created = sim.Time(d.varint("created"))
		r.LastModified = sim.Time(d.varint("modified"))
		r.LastAccessed = sim.Time(d.varint("accessed"))
		r.NumFiles, r.NumSubdirs = 0, 0
		if r.IsDir {
			r.NumFiles = d.int("files")
			r.NumSubdirs = d.int("subdirectories")
		}
		name := d.bytes("name")
		if arena.Len()+len(name) > s.nameBytes {
			d.fail("name length")
		}
		if d.err != nil {
			break
		}
		start := arena.Len()
		arena.Write(name)
		r.Name = arena.String()[start:]
		fn(&r)
	}
	err := d.err
	switch {
	case err != nil:
	case arena.Len() != s.nameBytes:
		err = fmt.Errorf("%w: names hold %d bytes, header says %d", ErrCorrupt, arena.Len(), s.nameBytes)
	case len(d.buf) != 0:
		err = fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(d.buf))
	}
	if err != nil && s.source != "" {
		err = fmt.Errorf("%s: %w", s.source, err)
	}
	return err
}

// decoder reads the binary format's fields; the first failure sticks,
// empties the input and zeroes every later read. Its varints of up to
// eight bytes are read a word at a time where eight bytes remain, and
// with binary.Uvarint elsewhere; both give the same values and lengths.
type decoder struct {
	buf []byte
	err error
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: bad %s", ErrCorrupt, what)
	}
	d.buf = nil
}

// continuation is the high bit of every byte of a word: set in each
// byte of a varint but its last.
const continuation = 0x8080808080808080

// wordUvarint reads a uvarint of at most eight bytes from one
// little-endian word of b, as binary.Uvarint would. It returns n = 0
// where that does not apply: fewer than eight bytes remain, or the
// varint is longer.
func wordUvarint(b []byte) (v uint64, n int) {
	if len(b) >= 8 {
		v = binary.LittleEndian.Uint64(b)
		if stops := ^v & continuation; stops != 0 {
			// The lowest clear high bit ends the varint, so the varint is
			// the word's low n bits, n = 8 × its length. Close the gaps
			// between their 7-bit groups in three steps (pairs, quads,
			// the whole word), which also drop the high bits.
			n = bits.TrailingZeros64(stops) + 1
			v &= 1<<n - 1
			v = v&0x007f007f007f007f | v&0x7f007f007f007f00>>1
			v = v&0x00003fff00003fff | v&0x3fff00003fff0000>>2
			v = v&0x000000000fffffff | v&0x0fffffff00000000>>4
			n >>= 3
		}
	}
	return v, n
}

func (d *decoder) uvarint(what string) uint64 {
	v, n := wordUvarint(d.buf)
	if n == 0 {
		// Nine- and ten-byte varints, and the section's last seven bytes.
		if v, n = binary.Uvarint(d.buf); n <= 0 {
			d.fail(what)
			return 0
		}
	}
	d.buf = d.buf[n:]
	return v
}

// varint reads a zig-zag varint as binary.Varint decodes it.
func (d *decoder) varint(what string) int64 {
	u := d.uvarint(what)
	return int64(u>>1) ^ -int64(u&1)
}

func (d *decoder) int(what string) int {
	v := d.varint(what)
	if v != int64(int(v)) {
		d.fail(what)
		return 0
	}
	return int(v)
}

func (d *decoder) byte(what string) byte {
	if len(d.buf) == 0 {
		d.fail(what)
		return 0
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b
}

// count reads a count of items that take at least unit bytes each and
// rejects one the unread input cannot hold.
func (d *decoder) count(unit int, what string) int {
	v := d.uvarint(what)
	if v > uint64(len(d.buf)/unit) {
		d.fail(what)
		return 0
	}
	return int(v)
}

// bytes reads a length-prefixed byte string, aliasing the input.
func (d *decoder) bytes(what string) []byte {
	n := d.count(1, what)
	b := d.buf[:n:n]
	d.buf = d.buf[n:]
	return b
}
