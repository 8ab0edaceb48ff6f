package collect

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"repro/internal/colstore"
	"repro/internal/par"
)

// ColumnarExt is the file suffix of a columnar segment on disk, the one
// layout the program saves. A directory converted from a legacy row
// corpus (fscorpus convert) also holds <stem>.trz files, which loaders
// ignore once the segment of the same stem is present.
const ColumnarExt = ".fsc"

// SaveColumnarDir encodes each finalized machine stream as a columnar
// segment <dir>/<stem>.fsc, with colliding flattened names disambiguated
// per fileStems and the stem → machine assignment recorded in
// StemManifestName so LoadColumnarDir restores the true names. It returns
// the per-machine summaries; each summary's SHA-256 equals the digest of
// the machine's logical record stream, so callers can prove equivalence
// with another form of the stream without re-reading files.
//
// Machines are encoded and written on GOMAXPROCS workers, each into its
// own slot, so the files, the summaries and the error returned (the first
// in stem order) are those of a serial save.
func (s *Store) SaveColumnarDir(dir string, opts colstore.Options) (map[string]colstore.Summary, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	stems := s.fileStems()
	slots := make([]colstore.Summary, len(stems))
	errs := make([]error, len(stems))
	par.For(runtime.GOMAXPROCS(0), len(stems), func(i int) {
		slots[i], errs[i] = s.saveSegment(dir, stems[i], opts)
	})
	sums := make(map[string]colstore.Summary, len(stems))
	for i, mf := range stems {
		if errs[i] != nil {
			return nil, errs[i]
		}
		sums[mf.machine] = slots[i]
	}
	if err := writeStemManifest(dir, stems); err != nil {
		return nil, err
	}
	return sums, nil
}

// saveSegment encodes one machine's stream and writes it as its segment.
func (s *Store) saveSegment(dir string, mf machineFile, opts colstore.Options) (colstore.Summary, error) {
	recs, err := s.Records(mf.machine)
	if err != nil {
		return colstore.Summary{}, err
	}
	data, sum, err := colstore.EncodeSegment(recs, opts)
	if err != nil {
		return sum, fmt.Errorf("collect: encode %q columnar: %w", mf.machine, err)
	}
	return sum, os.WriteFile(filepath.Join(dir, mf.stem+ColumnarExt), data, 0o644)
}

// LoadColumnarDir opens every *.fsc segment in dir, keyed by true
// machine name: the stem manifest written at save time resolves
// SafeName-rewritten and collision-suffixed stems back to the names the
// streams were collected under, and a corpus without a manifest keeps
// the file stems. Metrics m may be nil; when set, every opened segment
// reports scans against it.
func LoadColumnarDir(dir string, m *colstore.Metrics) (map[string]*colstore.Segment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	stems, err := readStemManifest(dir)
	if err != nil {
		return nil, err
	}
	segs := make(map[string]*colstore.Segment)
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ColumnarExt) {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		seg, err := colstore.OpenSegment(data, m)
		if err != nil {
			return nil, fmt.Errorf("collect: %s: %w", e.Name(), err)
		}
		name, err := machineForStem(stems, strings.TrimSuffix(e.Name(), ColumnarExt), e.Name())
		if err != nil {
			return nil, err
		}
		segs[name] = seg
	}
	return segs, nil
}
