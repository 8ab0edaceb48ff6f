package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
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

// Write serialises the snapshot in the binary format in one call to w.
// A decoded snapshot writes the bytes it was decoded from, unchanged.
func (s *Snapshot) Write(w io.Writer) error {
	if s.file != nil {
		_, err := w.Write(s.file)
		return err
	}
	if err := s.validate(); err != nil {
		return err
	}
	nameBytes := 0
	for i := range s.walk {
		nameBytes += len(s.walk[i].Name)
	}
	// A record takes about 27 bytes besides its name: three times of
	// about 7 bytes each dominate.
	b := make([]byte, 0, 64+len(s.Machine)+len(s.Volume)+nameBytes+32*len(s.walk))
	b = append(b, magic...)
	b = appendString(b, s.Machine)
	b = appendString(b, s.Volume)
	b = binary.AppendVarint(b, int64(s.TakenAt))
	b = binary.AppendUvarint(b, uint64(len(s.walk)))
	b = binary.AppendUvarint(b, uint64(nameBytes))
	for i := range s.walk {
		r := &s.walk[i]
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
		b = appendString(b, r.Name)
	}
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
	_, err := w.Write(b)
	return err
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// validate rejects records a walk never produces: a negative depth
// (Entries would cut its ancestor stack at a negative index) and
// directory fan-out on a file (the binary format has no place for it).
func (s *Snapshot) validate() error {
	for i := range s.walk {
		r := &s.walk[i]
		if r.Depth < 0 {
			return fmt.Errorf("%w: record %d has negative depth %d", ErrCorrupt, i, r.Depth)
		}
		if !r.IsDir && (r.NumFiles != 0 || r.NumSubdirs != 0) {
			return fmt.Errorf("%w: file record %d has directory fan-out", ErrCorrupt, i)
		}
	}
	return nil
}

// Decode checks one snapshot in the binary format, as Write produces
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

// eachEncoded is Each over a decoded snapshot: the one parser of the
// record section. It passes one reused record and slices every name from
// one arena string of the header's name bytes, so a walk costs two
// allocations however many records it holds.
func (s *Snapshot) eachEncoded(fn func(*WalkRecord)) error {
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
// empties the input and zeroes every later read.
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

func (d *decoder) uvarint(what string) uint64 {
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fail(what)
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) varint(what string) int64 {
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		d.fail(what)
		return 0
	}
	d.buf = d.buf[n:]
	return v
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
