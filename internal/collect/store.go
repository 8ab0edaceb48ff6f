// Package collect implements the trace collection servers of §3: they
// receive event streams from the per-machine trace agents and store them
// in a compressed format for later retrieval by the analysis. A Store is
// the compressed repository (DEFLATE per machine stream, as the paper's
// servers "store them in compressed formats"); Server/Client add the
// network path the agents used.
package collect

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/tracefmt"
)

// ErrNoRecords reports that a machine has no stored trace stream. It is
// the expected outcome for a machine that legitimately produced no
// records during a study; callers should test with errors.Is and treat
// every other error from Records as a real decode/state failure.
var ErrNoRecords = errors.New("collect: no records")

// ErrCountMismatch reports that a stored stream's decoded record count
// disagrees with the count recorded when the stream was written — a
// truncated or padded stream, i.e. corruption, never a benign state.
// Callers test with errors.Is; the wrapped message says which direction
// the mismatch ran.
var ErrCountMismatch = errors.New("collect: record count mismatch")

// Store is a compressed, per-machine trace repository. It is safe for
// concurrent use: the fleet engine runs machines on parallel shards, so
// the map is guarded by one mutex and each stream by its own, keeping
// compression of different machines' streams off a shared lock.
type Store struct {
	mu      sync.Mutex
	streams map[string]*stream
}

type stream struct {
	mu     sync.Mutex
	buf    bytes.Buffer
	zw     *flate.Writer
	count  int
	closed bool
}

// NewStore creates an empty repository.
func NewStore() *Store {
	return &Store{streams: map[string]*stream{}}
}

// get returns the named stream, creating it when create is set.
func (s *Store) get(machine string, create bool) (*stream, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.streams[machine]
	if st == nil && create {
		st = &stream{}
		zw, err := flate.NewWriter(&st.buf, flate.BestSpeed)
		if err != nil {
			return nil, err
		}
		st.zw = zw
		s.streams[machine] = st
	}
	return st, nil
}

// Append compresses and stores records under the machine's stream.
func (s *Store) Append(machine string, recs []tracefmt.Record) error {
	if len(recs) == 0 {
		return nil
	}
	st, err := s.get(machine, true)
	if err != nil {
		return err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return fmt.Errorf("collect: stream %q already finalized", machine)
	}
	if err := tracefmt.WriteAll(st.zw, recs); err != nil {
		return err
	}
	st.count += len(recs)
	return nil
}

// close flushes and seals one stream.
func (st *stream) close(name string) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return nil
	}
	if err := st.zw.Close(); err != nil {
		return fmt.Errorf("collect: finalize %q: %w", name, err)
	}
	st.closed = true
	return nil
}

// Finalize flushes all compression streams; Append after Finalize fails.
func (s *Store) Finalize() error {
	s.mu.Lock()
	streams := make(map[string]*stream, len(s.streams))
	for name, st := range s.streams {
		streams[name] = st
	}
	s.mu.Unlock()
	for name, st := range streams {
		if err := st.close(name); err != nil {
			return err
		}
	}
	return nil
}

// FinalizeMachine seals one machine's stream so it can be read, hashed or
// exported while other shards are still appending to theirs. Finalizing a
// machine with no stream is a no-op.
func (s *Store) FinalizeMachine(machine string) error {
	st, _ := s.get(machine, false)
	if st == nil {
		return nil
	}
	return st.close(machine)
}

// Machines lists the machine names with stored streams, sorted.
func (s *Store) Machines() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.streams))
	for n := range s.streams {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// RecordCount returns the number of stored records for a machine.
func (s *Store) RecordCount(machine string) int {
	st, _ := s.get(machine, false)
	if st == nil {
		return 0
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.count
}

// TotalRecords sums record counts across machines.
func (s *Store) TotalRecords() int {
	s.mu.Lock()
	streams := make([]*stream, 0, len(s.streams))
	for _, st := range s.streams {
		streams = append(streams, st)
	}
	s.mu.Unlock()
	total := 0
	for _, st := range streams {
		st.mu.Lock()
		total += st.count
		st.mu.Unlock()
	}
	return total
}

// CompressedBytes reports the stored (compressed) size.
func (s *Store) CompressedBytes() int64 {
	s.mu.Lock()
	streams := make([]*stream, 0, len(s.streams))
	for _, st := range s.streams {
		streams = append(streams, st)
	}
	s.mu.Unlock()
	var total int64
	for _, st := range streams {
		st.mu.Lock()
		total += int64(st.buf.Len())
		st.mu.Unlock()
	}
	return total
}

// Records decompresses and decodes one machine's stream. The stream must
// be finalized first. A machine with no stream yields ErrNoRecords;
// any other error is a state or decode failure.
func (s *Store) Records(machine string) ([]tracefmt.Record, error) {
	st, _ := s.get(machine, false)
	if st == nil {
		return nil, fmt.Errorf("%w for machine %q", ErrNoRecords, machine)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if !st.closed {
		return nil, fmt.Errorf("collect: stream %q not finalized", machine)
	}
	return decodeStream(st.buf.Bytes(), st.count)
}

// flatePool and readerPool recycle the DEFLATE state (~40 KB of window
// and tables) and the chunked stream decoder (~200 KB bufio buffer)
// across decodes: the parallel DataSet fan-out calls Records once per
// machine, and without pooling those two allocations dominate.
var (
	flatePool = sync.Pool{
		New: func() any { return flate.NewReader(bytes.NewReader(nil)) },
	}
	readerPool = sync.Pool{
		New: func() any { return tracefmt.NewReader(bytes.NewReader(nil)) },
	}
)

// decodeStream inflates and decodes a finalized stream into a slice
// pre-sized from the stored record count, so the result is exactly one
// allocation regardless of stream length. The stored count is trusted
// but verified: a stream that ends early or holds extra records is a
// corruption error, not a silent truncation.
func decodeStream(data []byte, count int) ([]tracefmt.Record, error) {
	zr := flatePool.Get().(io.ReadCloser)
	defer flatePool.Put(zr)
	if err := zr.(flate.Resetter).Reset(bytes.NewReader(data), nil); err != nil {
		return nil, err
	}
	rd := readerPool.Get().(*tracefmt.Reader)
	defer readerPool.Put(rd)
	rd.Reset(zr)

	recs := make([]tracefmt.Record, count)
	for i := range recs {
		if err := rd.ReadInto(&recs[i]); err != nil {
			if err == io.EOF {
				return nil, fmt.Errorf("%w: stream ended after %d of %d records", ErrCountMismatch, i, count)
			}
			return nil, err
		}
	}
	var extra tracefmt.Record
	switch err := rd.ReadInto(&extra); err {
	case io.EOF:
	case nil:
		return nil, fmt.Errorf("%w: stream holds more than the recorded %d records", ErrCountMismatch, count)
	default:
		return nil, err
	}
	return recs, zr.Close()
}

// ExportStream copies out one machine's finalized compressed stream and
// its record count — the unit the fleet engine checkpoints.
func (s *Store) ExportStream(machine string) ([]byte, int, error) {
	st, _ := s.get(machine, false)
	if st == nil {
		return nil, 0, fmt.Errorf("%w for machine %q", ErrNoRecords, machine)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if !st.closed {
		return nil, 0, fmt.Errorf("collect: stream %q not finalized", machine)
	}
	out := make([]byte, st.buf.Len())
	copy(out, st.buf.Bytes())
	return out, st.count, nil
}

// ImportStream installs a finalized compressed stream under the machine's
// name — the resume path of the fleet engine. Importing over an existing
// stream fails; importing an empty stream is a no-op (the machine simply
// has no records, matching a fresh run that produced none).
func (s *Store) ImportStream(machine string, data []byte, count int) error {
	if len(data) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.streams[machine]; ok {
		return fmt.Errorf("collect: import: stream %q already exists", machine)
	}
	st := &stream{closed: true, count: count}
	st.buf.Write(data)
	s.streams[machine] = st
	return nil
}

// StreamSum returns the SHA-256 of one machine's finalized compressed
// stream. Equal sums mean byte-identical stored streams — the invariant
// the fleet engine maintains across worker counts and resume.
func (s *Store) StreamSum(machine string) ([sha256.Size]byte, error) {
	data, _, err := s.ExportStream(machine)
	if err != nil {
		return [sha256.Size]byte{}, err
	}
	return sha256.Sum256(data), nil
}

// AllRecords returns every machine's records keyed by machine name.
func (s *Store) AllRecords() (map[string][]tracefmt.Record, error) {
	out := map[string][]tracefmt.Record{}
	for _, m := range s.Machines() {
		recs, err := s.Records(m)
		if err != nil {
			return nil, err
		}
		out[m] = recs
	}
	return out, nil
}

// SafeName flattens a machine name into a file name.
func SafeName(machine string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		}
		return '_'
	}, machine)
}

// machineFile pairs a machine name with its on-disk file stem.
type machineFile struct {
	machine string
	stem    string
}

// fileStems assigns each machine a unique file stem: SafeName-flattened,
// with machines whose names flatten to the same stem disambiguated by a
// deterministic numeric suffix (-2, -3, ...) in sorted-name order, so two
// machines can never silently overwrite each other's file. Legacy row
// corpora used the same assignment, so a converted <stem>.trz and its
// <stem>.fsc refer to the same machine.
func (s *Store) fileStems() []machineFile {
	names := s.Machines()
	out := make([]machineFile, 0, len(names))
	used := map[string]bool{}
	for _, name := range names {
		base := SafeName(name)
		stem := base
		for n := 2; used[stem]; n++ {
			stem = fmt.Sprintf("%s-%d", base, n)
		}
		used[stem] = true
		out = append(out, machineFile{machine: name, stem: stem})
	}
	return out
}

// StemManifestName is the corpus-directory file recording the stem →
// machine-name assignment. SafeName flattening is lossy ("pool/01" and
// "pool:01" both land on "pool_01", with a numeric suffix breaking the
// tie), so without this manifest a Save→Load round trip silently renames
// any machine whose name was rewritten or collided. A legacy row corpus
// carries the same manifest: <stem>.trz and <stem>.fsc name the same
// machine.
const StemManifestName = "machines.json"

// ErrManifestMismatch reports a corpus directory whose stem manifest
// disagrees with the files on disk — a stream file whose stem the
// manifest does not mention. That means the directory holds a mix of
// corpora (or a manifest from a different save) and the true machine
// names cannot be trusted; callers test with errors.Is.
var ErrManifestMismatch = errors.New("collect: stem manifest mismatch")

// stemManifest is the on-disk schema of StemManifestName.
type stemManifest struct {
	Version int `json:"version"`
	// Stems maps file stem → true machine name.
	Stems map[string]string `json:"stems"`
}

// writeStemManifest persists the stem assignment beside the streams.
func writeStemManifest(dir string, stems []machineFile) error {
	man := stemManifest{Version: 1, Stems: make(map[string]string, len(stems))}
	for _, mf := range stems {
		man.Stems[mf.stem] = mf.machine
	}
	data, err := json.MarshalIndent(&man, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, StemManifestName), append(data, '\n'), 0o644)
}

// readStemManifest loads the stem → machine map, or nil when the corpus
// predates the manifest (names then fall back to the raw stems).
func readStemManifest(dir string) (map[string]string, error) {
	data, err := os.ReadFile(filepath.Join(dir, StemManifestName))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var man stemManifest
	if err := json.Unmarshal(data, &man); err != nil {
		return nil, fmt.Errorf("collect: %s: %w", StemManifestName, err)
	}
	return man.Stems, nil
}

// machineForStem resolves a file stem to its true machine name under the
// manifest (nil = legacy corpus, stem is the name).
func machineForStem(stems map[string]string, stem, file string) (string, error) {
	if stems == nil {
		return stem, nil
	}
	name, ok := stems[stem]
	if !ok {
		return "", fmt.Errorf("%w: %s has no entry for %q", ErrManifestMismatch, StemManifestName, file)
	}
	return name, nil
}

// LoadDir reads every *.trz file in dir into a finalized Store: the
// legacy row layout, which the program no longer writes and reads only
// to import (fscorpus convert) or to check segments against (fscorpus
// verify). Machine names come from the stem manifest when present
// (including SafeName-rewritten and colliding names); a corpus without
// one keeps the file stems as names.
func LoadDir(dir string) (*Store, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	stems, err := readStemManifest(dir)
	if err != nil {
		return nil, err
	}
	s := NewStore()
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".trz") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		name, err := machineForStem(stems, strings.TrimSuffix(e.Name(), ".trz"), e.Name())
		if err != nil {
			return nil, err
		}
		// Count records by streaming through the stream once, without
		// materializing it.
		zr := flate.NewReader(bytes.NewReader(data))
		rd := tracefmt.NewReader(zr)
		var rec tracefmt.Record
		for {
			if err := rd.ReadInto(&rec); err != nil {
				if err != io.EOF {
					zr.Close()
					return nil, fmt.Errorf("collect: %s: %w", e.Name(), err)
				}
				break
			}
		}
		zr.Close()
		if err := s.ImportStream(name, data, rd.Count()); err != nil {
			return nil, err
		}
	}
	return s, nil
}

var _ io.Writer = (*bytes.Buffer)(nil) // interface sanity
