package analysis

import (
	"cmp"
	"slices"
	"strings"

	"repro/internal/snapshot"
	"repro/internal/stats"
)

// This file implements the §5 file-system content analyses over the
// daily snapshots: the per-volume census (file counts, fullness proxies,
// directory shape), the file-type decomposition by count and by bytes
// (exe/dll/fonts dominating the size tail), time-attribute reliability
// checks, and day-over-day change attribution to the profile tree and
// its WWW cache.

// ContentCensus summarises one snapshot.
type ContentCensus struct {
	Machine string
	Files   int
	Dirs    int
	Bytes   int64

	// Directory shape.
	MaxDepth     int
	MeanDirFiles float64
	MeanDirSubs  float64

	// File-size distribution descriptors.
	SizeP50, SizeP90, SizeMax float64
	// SizeTailAlpha is the Hill estimate of the size tail.
	SizeTailAlpha float64

	// TimeInconsistent is the fraction of files whose last-change is more
	// recent than last-access (§5: 2–4%). Only meaningful on NTFS
	// volumes, where both times exist.
	TimeInconsistent float64
}

// Census computes the §5 summary of one snapshot in one pass over its
// records, without sorting the sample: the size percentiles are selected
// in place from the sizes slice it owns, sized from the record count (P90
// within the part P50's selection left), and the Hill estimate selects
// its threshold within the part P90's selection left, sorting only the
// values above it. Every field is the value stats.Summarize and
// stats.Hill would give. A record error fails the census.
func Census(s *snapshot.Snapshot) (ContentCensus, error) {
	c := ContentCensus{Machine: s.Machine}
	sizes := make([]float64, 0, s.Len())
	var dirFiles, dirSubs float64
	inconsistent, timed := 0, 0
	err := s.Each(func(r *snapshot.WalkRecord) {
		if r.Depth > c.MaxDepth {
			c.MaxDepth = r.Depth
		}
		if r.IsDir {
			c.Dirs++
			dirFiles += float64(r.NumFiles)
			dirSubs += float64(r.NumSubdirs)
			return
		}
		c.Files++
		c.Bytes += r.Size
		size := float64(r.Size)
		if len(sizes) == 0 || size > c.SizeMax {
			c.SizeMax = size
		}
		sizes = append(sizes, size)
		if r.LastModified != 0 && r.LastAccessed != 0 {
			timed++
			if r.LastModified > r.LastAccessed {
				inconsistent++
			}
		}
	})
	if err != nil {
		return ContentCensus{}, err
	}
	k := 0 // no tail estimate for a small sample
	if len(sizes) > 100 {
		k = len(sizes)/50 + 2
	}
	p, alpha := stats.SelectPercentilesHill(sizes, k, 50, 90)
	c.SizeP50, c.SizeP90, c.SizeTailAlpha = p[0], p[1], alpha
	if c.Dirs > 0 {
		c.MeanDirFiles = dirFiles / float64(c.Dirs)
		c.MeanDirSubs = dirSubs / float64(c.Dirs)
	}
	if timed > 0 {
		c.TimeInconsistent = float64(inconsistent) / float64(timed)
	}
	return c, nil
}

// TypeSlice is one file-type row of the §5 decomposition.
type TypeSlice struct {
	Category TypeCategory
	Files    int
	Bytes    int64
}

// TypeCensus decomposes a snapshot by file-type category, sorted by
// descending bytes — the view in which "executables, dynamic loadable
// libraries and fonts dominate the file size distribution" — and returns
// the byte share of executables, libraries, drivers and fonts among its
// largest 1% of files (files/100+1 of them), the §5 size-tail domination
// check. One pass over the walk keeps each file's size and name and
// classifies each distinct extension once; the files are then sorted by
// descending size with slices.SortFunc, the pdqsort sort.Slice runs, so
// equal sizes at the cut fall as they always have, and only the top 1%
// have their extensions lower-cased. A record error fails it.
func TypeCensus(s *snapshot.Snapshot) (types []TypeSlice, tailImageShare float64, err error) {
	type file struct {
		size int64
		name string
	}
	files := make([]file, 0, s.Len())
	agg := map[TypeCategory]*TypeSlice{}
	byExt := map[string]*TypeSlice{} // as named, before case folding
	err = s.Each(func(r *snapshot.WalkRecord) {
		if r.IsDir {
			return
		}
		ext := nameExt(r.Name)
		t := byExt[ext]
		if t == nil {
			cat := ClassifyExt(ext)
			if t = agg[cat]; t == nil {
				t = &TypeSlice{Category: cat}
				agg[cat] = t
			}
			byExt[ext] = t
		}
		t.Files++
		t.Bytes += r.Size
		files = append(files, file{r.Size, r.Name})
	})
	if err != nil {
		return nil, 0, err
	}
	types = make([]TypeSlice, 0, len(agg))
	for _, t := range agg {
		types = append(types, *t)
	}
	slices.SortFunc(types, func(a, b TypeSlice) int {
		if a.Bytes != b.Bytes {
			return cmp.Compare(b.Bytes, a.Bytes)
		}
		return strings.Compare(a.Category.Minor, b.Category.Minor)
	})

	slices.SortFunc(files, func(a, b file) int { return cmp.Compare(b.size, a.size) })
	var imgBytes, total int64
	for _, f := range files[:min(len(files)/100+1, len(files))] {
		total += f.size
		switch strings.ToLower(nameExt(f.name)) {
		case "exe", "dll", "ttf", "fon", "sys":
			imgBytes += f.size
		}
	}
	if total > 0 {
		tailImageShare = float64(imgBytes) / float64(total)
	}
	return types, tailImageShare, nil
}

// nameExt is WalkRecord.Ext without the lower-casing.
func nameExt(name string) string {
	if i := strings.LastIndexByte(name, '.'); i >= 0 && i < len(name)-1 {
		return name[i+1:]
	}
	return ""
}

// ChangeAttribution summarises a day-over-day diff the §5 way.
type ChangeAttribution struct {
	Added, Changed, Removed int
	// ProfileShare is the fraction of added+changed files under the
	// profile tree (paper: 94%).
	ProfileShare float64
	// WebCacheShare is the fraction under the WWW cache (paper: up to
	// 90–93% of profile changes).
	WebCacheShare float64
}

// AttributeChanges computes the §5 change shares between two snapshots of
// the same volume. A record error in either fails it.
func AttributeChanges(oldSnap, newSnap *snapshot.Snapshot) (ChangeAttribution, error) {
	oldEntries, err := oldSnap.Entries()
	if err != nil {
		return ChangeAttribution{}, err
	}
	newEntries, err := newSnap.Entries()
	if err != nil {
		return ChangeAttribution{}, err
	}
	d := snapshot.CompareEntries(oldEntries, newEntries)
	ca := ChangeAttribution{
		Added:   len(d.Added),
		Changed: len(d.Changed),
		Removed: len(d.Removed),
	}
	ca.ProfileShare = d.FractionUnder(`\winnt\profiles`)
	// Locate the WWW cache (any profile's Temporary Internet Files).
	for _, e := range newEntries {
		if e.Rec.IsDir && strings.EqualFold(e.Rec.Name, "Temporary Internet Files") {
			ca.WebCacheShare = d.FractionUnder(e.Path)
			break
		}
	}
	return ca, nil
}
