// Package snapshot implements the file-system state snapshots of §3.1:
// each morning at 4 a.m. the trace agent walks the local file-system trees
// and produces a sequence of records containing each file's and
// directory's attributes, in an order from which the original tree can be
// recovered. Names are stored in short form (the study cares about file
// types, not individual names). On FAT file systems the creation and
// last-access times are not maintained and are recorded as zero.
package snapshot

import (
	"fmt"
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

// Snapshot is one volume's walk at a point in time, held as its FSSNAP01
// file image (codec.go): Take encodes each record into it as the walk
// reaches it, and Decode keeps the checked bytes it was given. Its
// header (machine, volume, time and record count) is also kept decoded;
// its records are parsed by Each, so a study or a loaded corpus holds
// every walk as file bytes and parses only the walks an analysis reads.
type Snapshot struct {
	Machine string
	Volume  string
	TakenAt sim.Time

	// file is the whole image (Write copies it out unchanged) and recs
	// its record section; count and nameBytes are the header's record
	// and name byte counts, and source is the file a decoded snapshot
	// was read from, which its errors name.
	file, recs       []byte
	count, nameBytes int
	source           string
}

// New returns the snapshot of the given records, encoded as Take encodes
// a walk. It refuses records no walk produces: a negative depth (Entries
// would cut its ancestor stack at a negative index) and directory
// fan-out on a file (the format has no place for it).
func New(machine, vol string, takenAt sim.Time, records []WalkRecord) (*Snapshot, error) {
	var e encoder
	for i := range records {
		r := &records[i]
		switch {
		case r.Depth < 0:
			return nil, fmt.Errorf("%w: record %d has negative depth %d", ErrCorrupt, i, r.Depth)
		case !r.IsDir && (r.NumFiles != 0 || r.NumSubdirs != 0):
			return nil, fmt.Errorf("%w: file record %d has directory fan-out", ErrCorrupt, i)
		}
		e.add(r)
	}
	e.begin(machine, vol, takenAt)
	for i := range records {
		e.add(&records[i])
	}
	return e.seal(machine, vol, takenAt), nil
}

// Take walks fs producing a snapshot. The walk is deterministic: each
// directory's children in their walk order (fsys.Node.Children), which a
// directory sorts only when it changed since the last walk. A first pass
// counts the records and sizes their encoding, so the second encodes the
// image into one allocation of its exact size.
func Take(machine, vol string, fs *fsys.FS, now sim.Time) *Snapshot {
	var e encoder
	var r WalkRecord
	walk(fs.Root, 0, &r, &e)
	e.begin(machine, vol, now)
	walk(fs.Root, 0, &r, &e)
	return e.seal(machine, vol, now)
}

// walk passes e the record of n and then of each node under it, in walk
// order. The record r is reused from one node to the next.
func walk(n *fsys.Node, depth int, r *WalkRecord, e *encoder) {
	// Field by field: a composite literal would build the record aside
	// and copy it in.
	r.Name, r.Depth, r.IsDir = shortName(n.Name), depth, n.IsDir()
	r.Size, r.Created, r.LastModified, r.LastAccessed = n.Size, n.Created, n.LastModified, n.LastAccessed
	r.NumFiles, r.NumSubdirs = 0, 0
	kids := n.Children()
	for _, k := range kids {
		if k.IsDir() {
			r.NumSubdirs++
		} else {
			r.NumFiles++
		}
	}
	e.add(r)
	for _, k := range kids {
		walk(k, depth+1, r, e)
	}
}

// Len returns the number of records, the header's count, which Each
// checks against the records it parses.
func (s *Snapshot) Len() int { return s.count }

// Entry pairs a reconstructed path with its record.
type Entry struct {
	Path string
	Rec  WalkRecord
}

// Entries returns path-resolved records, reconstructing full paths from
// the pre-order/depth sequence — the §3.1 "in such a way that the
// original tree can be recovered". Each path is its parent directory's
// path + `\` + name.
func (s *Snapshot) Entries() ([]Entry, error) {
	out := make([]Entry, 0, s.Len())
	stack := make([]string, 0, 16) // paths of the ancestors at depths 1..k
	err := s.Each(func(r *WalkRecord) {
		if r.Depth == 0 {
			out = append(out, Entry{Path: `\`, Rec: *r})
			stack = stack[:0]
			return
		}
		if r.Depth-1 < len(stack) {
			stack = stack[:r.Depth-1]
		}
		parent := ""
		if len(stack) > 0 {
			parent = stack[len(stack)-1]
		}
		path := parent + `\` + r.Name
		out = append(out, Entry{Path: path, Rec: *r})
		if r.IsDir {
			stack = append(stack, path)
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Diff summarises day-over-day change between two snapshots of the same
// volume — the §5 content-change analysis ("a commonly observed daily
// pattern is one where 300-500 files change or are added").
type Diff struct {
	Added   []Entry
	Removed []Entry
	Changed []Entry // same path, different size or times
}

// Compare computes the Diff from old to new. It fails with the first
// record error of either snapshot.
func Compare(oldSnap, newSnap *Snapshot) (Diff, error) {
	oldEntries, err := oldSnap.Entries()
	if err != nil {
		return Diff{}, err
	}
	newEntries, err := newSnap.Entries()
	if err != nil {
		return Diff{}, err
	}
	return CompareEntries(oldEntries, newEntries), nil
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
