// Package snapshot implements the file-system state snapshots of §3.1:
// each morning at 4 a.m. the trace agent walks the local file-system trees
// and produces a sequence of records containing each file's and
// directory's attributes, in an order from which the original tree can be
// recovered. Names are stored in short form (the study cares about file
// types, not individual names). On FAT file systems the creation and
// last-access times are not maintained and are recorded as zero.
package snapshot

import (
	"sort"
	"strings"

	"repro/internal/ntos/fsys"
	"repro/internal/sim"
)

// WalkRecord is one file or directory in a snapshot. Depth allows tree
// reconstruction from the pre-order sequence, per §3.1.
type WalkRecord struct {
	// Name is the short-form entry name (base name, truncated).
	Name string
	// Depth in the tree; the root is 0. Pre-order traversal plus depth
	// recovers the tree.
	Depth int
	IsDir bool
	Size  int64

	// The three time attributes (ticks; 0 where the FS does not maintain
	// them). §5 warns these are unreliable — the analysis checks that.
	Created      sim.Time
	LastModified sim.Time
	LastAccessed sim.Time

	// Directory fan-out (directories only).
	NumFiles   int
	NumSubdirs int
}

// Ext returns the lower-case extension of the record's name.
func (w WalkRecord) Ext() string {
	if i := strings.LastIndexByte(w.Name, '.'); i >= 0 && i < len(w.Name)-1 {
		return strings.ToLower(w.Name[i+1:])
	}
	return ""
}

// shortName truncates names, as the paper stored them in short form.
func shortName(name string) string {
	const max = 32
	if len(name) <= max {
		return name
	}
	// Keep the extension: the analysis is type-driven.
	if i := strings.LastIndexByte(name, '.'); i > 0 && len(name)-i <= 8 {
		keep := max - (len(name) - i)
		return name[:keep] + name[i:]
	}
	return name[:max]
}

// Snapshot is one volume's walk at a point in time.
type Snapshot struct {
	Machine string
	Volume  string
	TakenAt sim.Time
	Records []WalkRecord
}

// Take walks fs producing a snapshot. The walk is deterministic: each
// directory's children in their walk order (fsys.Node.Children), which a
// directory sorts only when it changed since the last walk.
func Take(machine, vol string, fs *fsys.FS, now sim.Time) *Snapshot {
	snap := &Snapshot{
		Machine: machine, Volume: vol, TakenAt: now,
		Records: make([]WalkRecord, 0, fs.FileCount+fs.DirCount),
	}
	var rec func(n *fsys.Node, depth int)
	rec = func(n *fsys.Node, depth int) {
		snap.Records = append(snap.Records, WalkRecord{
			Name:         shortName(n.Name),
			Depth:        depth,
			IsDir:        n.IsDir(),
			Size:         n.Size,
			Created:      n.Created,
			LastModified: n.LastModified,
			LastAccessed: n.LastAccessed,
		})
		if !n.IsDir() {
			return
		}
		kids := n.Children()
		w := &snap.Records[len(snap.Records)-1] // valid until rec appends
		for _, k := range kids {
			if k.IsDir() {
				w.NumSubdirs++
			} else {
				w.NumFiles++
			}
		}
		for _, k := range kids {
			rec(k, depth+1)
		}
	}
	rec(fs.Root, 0)
	return snap
}

// Files returns the non-directory records.
func (s *Snapshot) Files() []WalkRecord {
	out := make([]WalkRecord, 0, len(s.Records))
	for _, r := range s.Records {
		if !r.IsDir {
			out = append(out, r)
		}
	}
	return out
}

// Dirs returns the directory records.
func (s *Snapshot) Dirs() []WalkRecord {
	out := make([]WalkRecord, 0, len(s.Records))
	for _, r := range s.Records {
		if r.IsDir {
			out = append(out, r)
		}
	}
	return out
}

// TotalBytes sums file sizes.
func (s *Snapshot) TotalBytes() int64 {
	var total int64
	for _, r := range s.Records {
		if !r.IsDir {
			total += r.Size
		}
	}
	return total
}

// paths reconstructs full paths from the pre-order/depth sequence —
// the §3.1 "in such a way that the original tree can be recovered". Each
// path is its parent directory's path + `\` + name.
func (s *Snapshot) paths() []string {
	out := make([]string, len(s.Records))
	stack := make([]string, 0, 16) // paths of the ancestors at depths 1..k
	for i, r := range s.Records {
		if r.Depth == 0 {
			out[i] = `\`
			stack = stack[:0]
			continue
		}
		if r.Depth-1 < len(stack) {
			stack = stack[:r.Depth-1]
		}
		parent := ""
		if len(stack) > 0 {
			parent = stack[len(stack)-1]
		}
		out[i] = parent + `\` + r.Name
		if r.IsDir {
			stack = append(stack, out[i])
		}
	}
	return out
}

// Entry pairs a reconstructed path with its record.
type Entry struct {
	Path string
	Rec  WalkRecord
}

// Entries returns path-resolved records.
func (s *Snapshot) Entries() []Entry {
	ps := s.paths()
	out := make([]Entry, len(ps))
	for i := range ps {
		out[i] = Entry{Path: ps[i], Rec: s.Records[i]}
	}
	return out
}

// Diff summarises day-over-day change between two snapshots of the same
// volume — the §5 content-change analysis ("a commonly observed daily
// pattern is one where 300-500 files change or are added").
type Diff struct {
	Added   []Entry
	Removed []Entry
	Changed []Entry // same path, different size or times
}

// Compare computes the Diff from old to new.
func Compare(oldSnap, newSnap *Snapshot) Diff {
	return CompareEntries(oldSnap.Entries(), newSnap.Entries())
}

// CompareEntries is Compare over the Entries of the two snapshots, for a
// caller that reads the paths too and so resolves each snapshot once.
// Paths match case-insensitively; each is lower-cased once.
func CompareEntries(oldEntries, newEntries []Entry) Diff {
	oldKeys := make([]string, len(oldEntries))
	// at maps each old key to its last entry, as a later duplicate
	// overwrites an earlier one.
	at := make(map[string]int, len(oldEntries))
	for i, e := range oldEntries {
		oldKeys[i] = strings.ToLower(e.Path)
		at[oldKeys[i]] = i
	}
	seen := make([]bool, len(oldEntries)) // indexed as at is
	var d Diff
	for _, e := range newEntries {
		i, ok := at[strings.ToLower(e.Path)]
		if !ok {
			d.Added = append(d.Added, e)
			continue
		}
		seen[i] = true
		if old := oldEntries[i].Rec; !e.Rec.IsDir && (old.Size != e.Rec.Size || old.LastModified != e.Rec.LastModified) {
			d.Changed = append(d.Changed, e)
		}
	}
	for i, e := range oldEntries {
		if !seen[at[oldKeys[i]]] {
			d.Removed = append(d.Removed, e)
		}
	}
	sort.Slice(d.Added, func(i, j int) bool { return d.Added[i].Path < d.Added[j].Path })
	sort.Slice(d.Removed, func(i, j int) bool { return d.Removed[i].Path < d.Removed[j].Path })
	sort.Slice(d.Changed, func(i, j int) bool { return d.Changed[i].Path < d.Changed[j].Path })
	return d
}

// FractionUnder reports what fraction of the diff's added+changed entries
// fall under the given path prefix (case-insensitive) — used for the §5
// "94% of file system content changes are in the tree of user profiles"
// and "up to 90% of changes in the user's profile occur in the WWW cache"
// measurements.
func (d Diff) FractionUnder(prefix string) float64 {
	prefix = strings.ToLower(prefix)
	total, under := 0, 0
	count := func(es []Entry) {
		for _, e := range es {
			if e.Rec.IsDir {
				continue
			}
			total++
			if strings.HasPrefix(strings.ToLower(e.Path), prefix) {
				under++
			}
		}
	}
	count(d.Added)
	count(d.Changed)
	if total == 0 {
		return 0
	}
	return float64(under) / float64(total)
}
