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

// Census computes the §5 summary of one snapshot without sorting the
// sample: the size percentiles are selected in place from the sizes
// slice it owns and stats.Hill sorts only the values above its
// threshold. Every field is the value stats.Summarize would give.
func Census(s *snapshot.Snapshot) ContentCensus {
	c := ContentCensus{Machine: s.Machine}
	var sizes []float64
	var dirFiles, dirSubs float64
	inconsistent, timed := 0, 0
	for _, r := range s.Records {
		if r.Depth > c.MaxDepth {
			c.MaxDepth = r.Depth
		}
		if r.IsDir {
			c.Dirs++
			dirFiles += float64(r.NumFiles)
			dirSubs += float64(r.NumSubdirs)
			continue
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
	}
	if len(sizes) > 100 {
		c.SizeTailAlpha = stats.Hill(sizes, len(sizes)/50+2)
	}
	c.SizeP50 = stats.SelectPercentile(sizes, 50)
	c.SizeP90 = stats.SelectPercentile(sizes, 90)
	if c.Dirs > 0 {
		c.MeanDirFiles = dirFiles / float64(c.Dirs)
		c.MeanDirSubs = dirSubs / float64(c.Dirs)
	}
	if timed > 0 {
		c.TimeInconsistent = float64(inconsistent) / float64(timed)
	}
	return c
}

// TypeSlice is one file-type row of the §5 decomposition.
type TypeSlice struct {
	Category TypeCategory
	Files    int
	Bytes    int64
}

// TypeCensus decomposes a snapshot by file-type category, sorted by
// descending bytes — the view in which "executables, dynamic loadable
// libraries and fonts dominate the file size distribution".
func TypeCensus(s *snapshot.Snapshot) []TypeSlice {
	agg := map[TypeCategory]*TypeSlice{}
	for _, r := range s.Records {
		if r.IsDir {
			continue
		}
		cat := ClassifyExt(r.Ext())
		t := agg[cat]
		if t == nil {
			t = &TypeSlice{Category: cat}
			agg[cat] = t
		}
		t.Files++
		t.Bytes += r.Size
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
	return out
}

// ImageShareOfTail returns the byte share of executables/libraries/fonts
// among the largest `topN` files — the §5 size-tail domination check.
func ImageShareOfTail(s *snapshot.Snapshot, topN int) float64 {
	type f struct {
		size int64
		ext  string
	}
	var files []f
	for _, r := range s.Records {
		if !r.IsDir {
			files = append(files, f{r.Size, r.Ext()})
		}
	}
	sort.Slice(files, func(i, j int) bool { return files[i].size > files[j].size })
	if topN > len(files) {
		topN = len(files)
	}
	if topN == 0 {
		return 0
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
		return 0
	}
	return float64(imgBytes) / float64(total)
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
// the same volume.
func AttributeChanges(oldSnap, newSnap *snapshot.Snapshot) ChangeAttribution {
	newEntries := newSnap.Entries()
	d := snapshot.CompareEntries(oldSnap.Entries(), newEntries)
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
	return ca
}
