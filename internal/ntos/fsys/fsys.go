// Package fsys holds the in-memory state of one simulated file system
// volume: the directory tree, file metadata (sizes, the three NT time
// attributes, attribute flags) and space accounting. It deliberately does
// not store file *contents* — every statistic in the paper derives from
// metadata and transfer sizes, so the simulation tracks ranges, not bytes.
//
// Timestamp fidelity follows §5: on FAT volumes creation and last-access
// times are not maintained; on all volumes the times are under application
// control, so the simulation can (and the workload generators deliberately
// do, for a small fraction of files) produce the inconsistencies the paper
// observed — e.g. last-change more recent than last-access in 2–4% of
// files, and installer-backdated creation times.
package fsys

import (
	"fmt"
	"path"
	"slices"
	"strings"
	"sync"

	"repro/internal/ntos/types"
	"repro/internal/ntos/volume"
	"repro/internal/sim"
)

// Node is a file or directory.
type Node struct {
	Name   string
	Parent *Node
	Attrs  types.FileAttributes

	// Size in bytes; zero for directories.
	Size int64

	// The three NT time attributes (§5): unreliable by design.
	Created      sim.Time
	LastModified sim.Time
	LastAccessed sim.Time

	// dir is nil for regular files.
	dir *dirIndex

	// OpenCount tracks live FileObjects referencing this node so deletion
	// can be deferred NT-style (delete-pending until last close).
	OpenCount int
	// DeletePending marks the node for removal at last close.
	DeletePending bool
}

// dirIndex is a directory's children: the lookup map under lower-cased
// keys, and the same nodes in walk order. A file node keeps only a nil
// pointer to it, so caching the order does not grow the file nodes.
type dirIndex struct {
	children map[string]*Node
	// order is the children sorted by key, or nil when a create, remove
	// or rename has changed the directory since the last walk listed it.
	// It holds nodes only, 8 bytes a child; the keys are in the map.
	order []*Node
}

// changed drops the cached walk order after a create, remove or rename;
// the next walk sorts the directory again.
func (d *dirIndex) changed() { d.order = nil }

func newDirIndex() *dirIndex { return &dirIndex{children: map[string]*Node{}} }

// IsDir reports whether the node is a directory.
func (n *Node) IsDir() bool { return n.dir != nil }

// Orphaned reports whether the node has been unlinked from the tree (the
// volume root is never orphaned).
func (n *Node) Orphaned() bool { return n.Parent == nil && n.Name != "" }

// Path returns the full path of the node from the volume root.
func (n *Node) Path() string {
	if n.Parent == nil {
		return `\`
	}
	parts := []string{}
	for cur := n; cur.Parent != nil; cur = cur.Parent {
		parts = append(parts, cur.Name)
	}
	var b strings.Builder
	for i := len(parts) - 1; i >= 0; i-- {
		b.WriteByte('\\')
		b.WriteString(parts[i])
	}
	return b.String()
}

// Ext returns the lower-cased file extension without the dot ("" if none).
func (n *Node) Ext() string {
	e := path.Ext(n.Name)
	if e == "" {
		return ""
	}
	return strings.ToLower(e[1:])
}

// dirEntry is one child of a directory under its lookup key, the
// lower-cased name the walk order sorts by.
type dirEntry struct {
	key  string
	node *Node
}

// Children returns the directory's children in walk order, sorted by
// key (nil for a file). A directory sorts its children at the first walk
// after it changed and keeps that order until it changes again, so a
// walk of an unchanged tree sorts nothing. The slice is the directory's
// own: callers must not modify it. A change to the directory while a
// caller ranges over it leaves the caller's slice as it was. Listing may
// store the order, so like a change it must not run concurrently with
// another use of the volume.
func (n *Node) Children() []*Node {
	d := n.dir
	if d == nil {
		return nil
	}
	if d.order == nil {
		scratch := entryScratch.Get().(*[]dirEntry)
		es := (*scratch)[:0]
		for key, c := range d.children {
			es = append(es, dirEntry{key, c})
		}
		slices.SortFunc(es, func(a, b dirEntry) int { return strings.Compare(a.key, b.key) })
		order := make([]*Node, len(es))
		for i, e := range es {
			order[i] = e.node
		}
		d.order = order
		clear(es) // the pool must not keep the keys and nodes alive
		*scratch = es[:0]
		entryScratch.Put(scratch)
	}
	return d.order
}

// entryScratch holds the key-and-node slices Children sorts in, reused
// across directories; a pool, because shards walk their volumes
// concurrently.
var entryScratch = sync.Pool{New: func() any { return new([]dirEntry) }}

// ChildNames returns the sorted child keys, the lower-cased names, in
// Children order (empty for a file).
func (n *Node) ChildNames() []string {
	kids := n.Children()
	names := make([]string, len(kids))
	for i, c := range kids {
		names[i] = strings.ToLower(c.Name)
	}
	return names
}

// Child returns the named child, or nil.
func (n *Node) Child(name string) *Node {
	if n.dir == nil {
		return nil
	}
	return n.dir.children[strings.ToLower(name)]
}

// NumChildren returns the number of entries in a directory.
func (n *Node) NumChildren() int {
	if n.dir == nil {
		return 0
	}
	return len(n.dir.children)
}

// FS is one volume's file-system state.
type FS struct {
	Flavor volume.Flavor
	Root   *Node

	// Capacity and usage for the §5 "file systems are 54%–87% full" check.
	CapacityBytes int64
	UsedBytes     int64

	// Counts maintained incrementally.
	FileCount int
	DirCount  int
}

// New creates an empty file system of the given flavor and capacity.
func New(flavor volume.Flavor, capacity int64) *FS {
	root := &Node{Name: "", dir: newDirIndex(), Attrs: types.AttrDirectory}
	return &FS{Flavor: flavor, Root: root, CapacityBytes: capacity, DirCount: 1}
}

// splitPath normalises a backslash path into components.
func splitPath(p string) []string {
	p = strings.Trim(strings.ReplaceAll(p, "/", `\`), `\`)
	if p == "" {
		return nil
	}
	return strings.Split(p, `\`)
}

// Lookup resolves a path to a node. It returns StatusObjectPathNotFound if
// an intermediate component is missing or not a directory, and
// StatusObjectNameNotFound if only the final component is missing.
func (fs *FS) Lookup(p string) (*Node, types.Status) {
	return fs.resolve(splitPath(p))
}

// resolve walks already-split path components down from the root, with
// Lookup's statuses.
func (fs *FS) resolve(parts []string) (*Node, types.Status) {
	cur := fs.Root
	for i, part := range parts {
		if !cur.IsDir() {
			return nil, types.StatusObjectPathNotFound
		}
		next := cur.Child(part)
		if next == nil {
			if i == len(parts)-1 {
				return nil, types.StatusObjectNameNotFound
			}
			return nil, types.StatusObjectPathNotFound
		}
		cur = next
	}
	return cur, types.StatusSuccess
}

// Mkdir creates a directory (and returns it); parents must exist.
func (fs *FS) Mkdir(p string, now sim.Time) (*Node, types.Status) {
	return fs.create(p, true, 0, types.AttrDirectory, now)
}

// MkdirAll creates a directory and any missing parents.
func (fs *FS) MkdirAll(p string, now sim.Time) (*Node, types.Status) {
	return fs.MkdirAllIn(fs.Root, p, now)
}

// MkdirAllIn creates the directory at the relative path rel under parent,
// and any missing directories between them, and returns it; an empty rel
// names parent itself. It fails with StatusNotADirectory where parent or a
// component of rel is a file, and with StatusObjectPathNotFound when
// parent has been unlinked.
func (fs *FS) MkdirAllIn(parent *Node, rel string, now sim.Time) (*Node, types.Status) {
	if st := parentStatus(parent); st.IsError() {
		return nil, st
	}
	cur := parent
	for _, part := range splitPath(rel) {
		next := cur.Child(part)
		if next == nil {
			n, st := fs.createIn(cur, part, true, 0, types.AttrDirectory, now)
			if st.IsError() {
				return nil, st
			}
			next = n
		}
		if !next.IsDir() {
			return nil, types.StatusNotADirectory
		}
		cur = next
	}
	return cur, types.StatusSuccess
}

// CreateFile creates a regular file of the given size; the parent must
// exist. Fails with StatusObjectNameCollision if the name exists.
func (fs *FS) CreateFile(p string, size int64, attrs types.FileAttributes, now sim.Time) (*Node, types.Status) {
	return fs.create(p, false, size, attrs, now)
}

// CreateIn creates a regular file named name directly under parent, a
// node the caller holds, without walking a path from the root. It returns
// the statuses of CreateFile: StatusNotADirectory when parent is a file,
// StatusObjectPathNotFound when parent has been unlinked,
// StatusObjectNameCollision and StatusDiskFull.
func (fs *FS) CreateIn(parent *Node, name string, size int64, attrs types.FileAttributes, now sim.Time) (*Node, types.Status) {
	return fs.createIn(parent, name, false, size, attrs, now)
}

func (fs *FS) create(p string, dir bool, size int64, attrs types.FileAttributes, now sim.Time) (*Node, types.Status) {
	parts := splitPath(p)
	if len(parts) == 0 {
		return nil, types.StatusObjectNameCollision
	}
	parent, st := fs.resolve(parts[:len(parts)-1])
	if st.IsError() {
		return nil, types.StatusObjectPathNotFound
	}
	return fs.createIn(parent, parts[len(parts)-1], dir, size, attrs, now)
}

// parentStatus says whether a node can take a new child: a path cannot
// reach an unlinked node, and a file has no children.
func parentStatus(parent *Node) types.Status {
	switch {
	case parent.Orphaned():
		return types.StatusObjectPathNotFound
	case !parent.IsDir():
		return types.StatusNotADirectory
	}
	return types.StatusSuccess
}

// createIn is the one place a node joins the tree. A failed create leaves
// the counts and space accounting untouched.
func (fs *FS) createIn(parent *Node, name string, dir bool, size int64, attrs types.FileAttributes, now sim.Time) (*Node, types.Status) {
	if st := parentStatus(parent); st.IsError() {
		return nil, st
	}
	key := strings.ToLower(name)
	if parent.dir.children[key] != nil {
		return nil, types.StatusObjectNameCollision
	}
	if !dir && fs.UsedBytes+size > fs.CapacityBytes {
		return nil, types.StatusDiskFull
	}
	n := &Node{Name: name, Parent: parent, Attrs: attrs, Size: size}
	if dir {
		n.dir = newDirIndex()
		n.Attrs |= types.AttrDirectory
		fs.DirCount++
	} else {
		fs.FileCount++
		fs.UsedBytes += size
	}
	fs.stampCreate(n, now)
	parent.dir.children[key] = n
	parent.dir.changed()
	return n, types.StatusSuccess
}

// stampCreate sets the initial timestamps subject to flavor fidelity.
func (fs *FS) stampCreate(n *Node, now sim.Time) {
	n.LastModified = now
	if fs.Flavor != volume.FlavorFAT {
		n.Created = now
		n.LastAccessed = now
	}
}

// TouchAccess updates the last-access time (NTFS only).
func (fs *FS) TouchAccess(n *Node, now sim.Time) {
	if fs.Flavor != volume.FlavorFAT {
		n.LastAccessed = now
	}
}

// TouchModify updates the last-modified (and access) time.
func (fs *FS) TouchModify(n *Node, now sim.Time) {
	n.LastModified = now
	fs.TouchAccess(n, now)
}

// SetSize truncates or extends a file, adjusting space accounting.
func (fs *FS) SetSize(n *Node, size int64, now sim.Time) types.Status {
	if n.IsDir() {
		return types.StatusFileIsADirectory
	}
	delta := size - n.Size
	if delta > 0 && fs.UsedBytes+delta > fs.CapacityBytes {
		return types.StatusDiskFull
	}
	fs.UsedBytes += delta
	n.Size = size
	fs.TouchModify(n, now)
	return types.StatusSuccess
}

// Remove unlinks a node immediately. Directories must be empty.
func (fs *FS) Remove(n *Node) types.Status {
	if n.Parent == nil {
		return types.StatusAccessDenied
	}
	if n.IsDir() {
		if len(n.dir.children) > 0 {
			return types.StatusAccessDenied
		}
		fs.DirCount--
	} else {
		fs.FileCount--
		fs.UsedBytes -= n.Size
	}
	n.Parent.unlink(n)
	n.Parent = nil
	return types.StatusSuccess
}

// Rename moves a node to a new full path; the target parent must exist and
// the target name must be free.
func (fs *FS) Rename(n *Node, newPath string) types.Status {
	parts := splitPath(newPath)
	if len(parts) == 0 {
		return types.StatusInvalidParameter
	}
	parent, st := fs.resolve(parts[:len(parts)-1])
	if st.IsError() {
		return types.StatusObjectPathNotFound
	}
	if !parent.IsDir() {
		return types.StatusNotADirectory
	}
	newName := parts[len(parts)-1]
	if parent.Child(newName) != nil {
		return types.StatusObjectNameCollision
	}
	n.Parent.unlink(n)
	n.Name = newName
	n.Parent = parent
	parent.dir.children[strings.ToLower(newName)] = n
	parent.dir.changed()
	return types.StatusSuccess
}

// unlink removes child c from directory n.
func (n *Node) unlink(c *Node) {
	delete(n.dir.children, strings.ToLower(c.Name))
	n.dir.changed()
}

// Walk visits every node under root depth-first (directories before their
// children), calling fn. fn returning false prunes that subtree.
func (fs *FS) Walk(fn func(*Node) bool) {
	var rec func(*Node)
	rec = func(n *Node) {
		if !fn(n) {
			return
		}
		for _, c := range n.Children() {
			rec(c)
		}
	}
	rec(fs.Root)
}

// FullnessFraction returns used/capacity.
func (fs *FS) FullnessFraction() float64 {
	if fs.CapacityBytes == 0 {
		return 0
	}
	return float64(fs.UsedBytes) / float64(fs.CapacityBytes)
}

func (fs *FS) String() string {
	return fmt.Sprintf("FS(%s, %d files, %d dirs, %.0f%% full)",
		fs.Flavor, fs.FileCount, fs.DirCount, fs.FullnessFraction()*100)
}
