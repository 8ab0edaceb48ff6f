package snapshot

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
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
//
// Snapshots written before this format are one JSON object; Read still
// accepts them, nothing writes them.
const magic = "FSSNAP01"

// flagDir marks a directory record; every other flag bit must be zero.
const flagDir = 1

// minRecordBytes is the smallest encoded record: one byte each for the
// depth, the flags, the size, the three times and an empty name's length.
const minRecordBytes = 7

// ErrCorrupt reports a snapshot that fails its format checks.
var ErrCorrupt = errors.New("snapshot: corrupt")

// Write serialises the snapshot in the binary format in one call to w.
func (s *Snapshot) Write(w io.Writer) error {
	if err := s.validate(); err != nil {
		return err
	}
	nameBytes := 0
	for i := range s.Records {
		nameBytes += len(s.Records[i].Name)
	}
	// A record takes about 27 bytes besides its name: three times of
	// about 7 bytes each dominate.
	b := make([]byte, 0, 64+len(s.Machine)+len(s.Volume)+nameBytes+32*len(s.Records))
	b = append(b, magic...)
	b = appendString(b, s.Machine)
	b = appendString(b, s.Volume)
	b = binary.AppendVarint(b, int64(s.TakenAt))
	b = binary.AppendUvarint(b, uint64(len(s.Records)))
	b = binary.AppendUvarint(b, uint64(nameBytes))
	for i := range s.Records {
		r := &s.Records[i]
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
	for i := range s.Records {
		r := &s.Records[i]
		if r.Depth < 0 {
			return fmt.Errorf("%w: record %d has negative depth %d", ErrCorrupt, i, r.Depth)
		}
		if !r.IsDir && (r.NumFiles != 0 || r.NumSubdirs != 0) {
			return fmt.Errorf("%w: file record %d has directory fan-out", ErrCorrupt, i)
		}
	}
	return nil
}

// Read deserialises a snapshot written by Write, or a legacy JSON one.
func Read(r io.Reader) (*Snapshot, error) {
	data, err := readAll(r)
	if err != nil {
		return nil, fmt.Errorf("snapshot: read: %w", err)
	}
	// Anything that starts like the magic is binary, so another version
	// fails as such rather than as malformed JSON.
	if bytes.HasPrefix(data, []byte(magic[:len(magic)-2])) {
		return decode(data)
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("snapshot: decode: %w", err)
	}
	if len(s.Records) == 0 {
		s.Records = nil // as decode leaves an empty snapshot
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// readAll reads r to the end, sizing the buffer up front when r knows its
// length (a file, an in-memory reader), so a snapshot is read in one call.
func readAll(r io.Reader) ([]byte, error) {
	var size int64
	switch v := r.(type) {
	case interface{ Len() int }:
		size = int64(v.Len())
	case interface{ Stat() (os.FileInfo, error) }:
		if fi, err := v.Stat(); err == nil && fi.Mode().IsRegular() {
			size = fi.Size()
		}
	}
	buf := bytes.NewBuffer(make([]byte, 0, size+bytes.MinRead))
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// Decode parses one snapshot in the binary format, as Write produces it.
// Unlike Read it refuses the legacy JSON form, whose decoder allocates
// several hundred bytes even for a two-byte object, so a container that
// only ever holds Write's output (a fleet checkpoint) can bound what its
// snapshots cost by their size.
func Decode(data []byte) (*Snapshot, error) { return decode(data) }

// decode parses the binary format. Every count is checked against the
// input still unread before anything is allocated for it, so a corrupt
// file cannot ask for more memory than its own size implies.
func decode(data []byte) (*Snapshot, error) {
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
	n := d.count(minRecordBytes, "record count")
	nameBytes := d.count(1, "name bytes")
	if n > 0 {
		s.Records = make([]WalkRecord, n)
	}
	// Every name is a slice of one arena string: one allocation a
	// snapshot instead of one a record.
	var arena strings.Builder
	arena.Grow(nameBytes)
	for i := range s.Records {
		r := &s.Records[i]
		if depth := d.uvarint("depth"); depth <= math.MaxInt {
			r.Depth = int(depth)
		} else {
			d.fail("depth")
		}
		switch flags := d.byte("flags"); flags {
		case 0:
		case flagDir:
			r.IsDir = true
		default:
			d.fail("flags")
		}
		r.Size = d.varint("size")
		r.Created = sim.Time(d.varint("created"))
		r.LastModified = sim.Time(d.varint("modified"))
		r.LastAccessed = sim.Time(d.varint("accessed"))
		if r.IsDir {
			r.NumFiles = d.int("files")
			r.NumSubdirs = d.int("subdirectories")
		}
		name := d.bytes("name")
		if arena.Len()+len(name) > nameBytes {
			d.fail("name length")
		}
		if d.err != nil {
			return nil, d.err
		}
		start := arena.Len()
		arena.Write(name)
		r.Name = arena.String()[start:]
	}
	switch {
	case d.err != nil:
		return nil, d.err
	case arena.Len() != nameBytes:
		return nil, fmt.Errorf("%w: names hold %d bytes, header says %d", ErrCorrupt, arena.Len(), nameBytes)
	case len(d.buf) != 0:
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(d.buf))
	}
	return s, nil
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
