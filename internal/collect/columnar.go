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
// layout the program saves and loads.
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
// in stem order) are those of a serial save. A machine with an empty name
// fails the save before anything is written, since the manifest cannot
// list it.
func (s *Store) SaveColumnarDir(dir string, opts colstore.Options) (map[string]colstore.Summary, error) {
	stems := s.fileStems() // in sorted-name order: an empty name is first
	if len(stems) > 0 && stems[0].machine == "" {
		return nil, fmt.Errorf("collect: a machine with an empty name cannot be saved")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
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
// streams were collected under. A directory without the manifest fails
// the load, as does one whose manifest disagrees with its segments
// (segmentNames). Metrics m may be nil; when set, every opened segment
// reports scans against it.
func LoadColumnarDir(dir string, m *colstore.Metrics) (map[string]*colstore.Segment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var stems []string
	for _, e := range entries {
		if stem, ok := strings.CutSuffix(e.Name(), ColumnarExt); ok && !e.IsDir() {
			stems = append(stems, stem)
		}
	}
	data, err := os.ReadFile(filepath.Join(dir, StemManifestName))
	if err != nil {
		return nil, fmt.Errorf("collect: %w", err)
	}
	names, err := segmentNames(data, stems)
	if err != nil {
		return nil, err
	}
	segs := make(map[string]*colstore.Segment, len(stems))
	for _, stem := range stems {
		file := stem + ColumnarExt
		data, err := os.ReadFile(filepath.Join(dir, file))
		if err != nil {
			return nil, err
		}
		seg, err := colstore.OpenSegment(data, m)
		if err != nil {
			return nil, fmt.Errorf("collect: %s: %w", file, err)
		}
		segs[names[stem]] = seg
	}
	return segs, nil
}
