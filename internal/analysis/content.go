package analysis

import (
	"sort"
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
// within the part P50's selection left), and stats.Hill sorts only the
// values above its threshold. Every field is the value stats.Summarize
// would give. A record error fails the census.
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
	if len(sizes) > 100 {
		c.SizeTailAlpha = stats.Hill(sizes, len(sizes)/50+2)
	}
	p := stats.SelectPercentiles(sizes, 50, 90)
	c.SizeP50, c.SizeP90 = p[0], p[1]
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
// libraries and fonts dominate the file size distribution". A record
// error fails it.
func TypeCensus(s *snapshot.Snapshot) ([]TypeSlice, error) {
	agg := map[TypeCategory]*TypeSlice{}
	err := s.Each(func(r *snapshot.WalkRecord) {
		if r.IsDir {
			return
		}
		cat := ClassifyExt(r.Ext())
		t := agg[cat]
		if t == nil {
			t = &TypeSlice{Category: cat}
			agg[cat] = t
		}
		t.Files++
		t.Bytes += r.Size
	})
	if err != nil {
		return nil, err
	}
	out := make([]TypeSlice, 0, len(agg))
	for _, t := range agg {
		out = append(out, *t)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bytes != out[j].Bytes {
			return out[i].Bytes > out[j].Bytes
		}
		return out[i].Category.Minor < out[j].Category.Minor
	})
	return out, nil
}

// ImageShareOfTail returns the byte share of executables/libraries/fonts
// among the largest `topN` files — the §5 size-tail domination check. It
// collects the files in one pass in walk order and sorts them with
// sort.Slice, so equal sizes at the cut fall as they always have. A
// record error fails it.
func ImageShareOfTail(s *snapshot.Snapshot, topN int) (float64, error) {
	type f struct {
		size int64
		ext  string
	}
	var files []f
	err := s.Each(func(r *snapshot.WalkRecord) {
		if !r.IsDir {
			files = append(files, f{r.Size, r.Ext()})
		}
	})
	if err != nil {
		return 0, err
	}
	sort.Slice(files, func(i, j int) bool { return files[i].size > files[j].size })
	if topN > len(files) {
		topN = len(files)
	}
	if topN == 0 {
		return 0, nil
	}
	var imgBytes, total int64
	for _, x := range files[:topN] {
		total += x.size
		switch x.ext {
		case "exe", "dll", "ttf", "fon", "sys":
			imgBytes += x.size
		}
	}
	if total == 0 {
		return 0, nil
	}
	return float64(imgBytes) / float64(total), nil
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
