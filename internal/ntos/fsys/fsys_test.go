package fsys

import (
	"testing"

	"repro/internal/ntos/types"
	"repro/internal/ntos/volume"
	"repro/internal/sim"
)

func newNTFS() *FS { return New(volume.FlavorNTFS, 1<<30) }

func TestMkdirAllAndLookup(t *testing.T) {
	fs := newNTFS()
	if _, st := fs.MkdirAll(`\winnt\profiles\alice`, 100); st.IsError() {
		t.Fatalf("MkdirAll: %v", st)
	}
	n, st := fs.Lookup(`\winnt\profiles\alice`)
	if st.IsError() || !n.IsDir() {
		t.Fatalf("Lookup after MkdirAll: %v", st)
	}
	if fs.DirCount != 4 { // root + 3
		t.Errorf("DirCount = %d, want 4", fs.DirCount)
	}
}

func TestLookupErrors(t *testing.T) {
	fs := newNTFS()
	fs.MkdirAll(`\dir`, 0)
	fs.CreateFile(`\dir\f.txt`, 10, types.AttrNormal, 0)

	if _, st := fs.Lookup(`\dir\missing.txt`); st != types.StatusObjectNameNotFound {
		t.Errorf("missing leaf: %v", st)
	}
	if _, st := fs.Lookup(`\nodir\f.txt`); st != types.StatusObjectPathNotFound {
		t.Errorf("missing intermediate: %v", st)
	}
	if _, st := fs.Lookup(`\dir\f.txt\deeper`); st != types.StatusObjectPathNotFound {
		t.Errorf("file as intermediate: %v", st)
	}
}

func TestCreateFileCollision(t *testing.T) {
	fs := newNTFS()
	if _, st := fs.CreateFile(`\a.txt`, 5, types.AttrNormal, 0); st.IsError() {
		t.Fatalf("create: %v", st)
	}
	if _, st := fs.CreateFile(`\a.txt`, 5, types.AttrNormal, 0); st != types.StatusObjectNameCollision {
		t.Errorf("duplicate create: %v", st)
	}
	// Case-insensitive collision, NT-style.
	if _, st := fs.CreateFile(`\A.TXT`, 5, types.AttrNormal, 0); st != types.StatusObjectNameCollision {
		t.Errorf("case-insensitive duplicate: %v", st)
	}
}

func TestSpaceAccounting(t *testing.T) {
	fs := New(volume.FlavorNTFS, 1000)
	n, st := fs.CreateFile(`\big`, 900, types.AttrNormal, 0)
	if st.IsError() {
		t.Fatalf("create: %v", st)
	}
	if _, st := fs.CreateFile(`\too-big`, 200, types.AttrNormal, 0); st != types.StatusDiskFull {
		t.Errorf("over-capacity create: %v", st)
	}
	if st := fs.SetSize(n, 950, 1); st.IsError() {
		t.Errorf("grow within capacity: %v", st)
	}
	if st := fs.SetSize(n, 1100, 1); st != types.StatusDiskFull {
		t.Errorf("grow past capacity: %v", st)
	}
	if st := fs.SetSize(n, 100, 2); st.IsError() || fs.UsedBytes != 100 {
		t.Errorf("truncate: %v used=%d", st, fs.UsedBytes)
	}
	if f := fs.FullnessFraction(); f != 0.1 {
		t.Errorf("fullness = %v", f)
	}
}

func TestFATTimestampFidelity(t *testing.T) {
	fat := New(volume.FlavorFAT, 1<<30)
	n, _ := fat.CreateFile(`\f.dat`, 10, types.AttrNormal, sim.Time(5*sim.Second))
	if n.Created != 0 || n.LastAccessed != 0 {
		t.Error("FAT maintained creation/access times")
	}
	if n.LastModified == 0 {
		t.Error("FAT lost modified time")
	}
	fat.TouchAccess(n, sim.Time(9*sim.Second))
	if n.LastAccessed != 0 {
		t.Error("FAT TouchAccess recorded a time")
	}

	ntfs := newNTFS()
	m, _ := ntfs.CreateFile(`\f.dat`, 10, types.AttrNormal, sim.Time(5*sim.Second))
	if m.Created == 0 || m.LastAccessed == 0 {
		t.Error("NTFS missing creation/access times")
	}
}

func TestRemove(t *testing.T) {
	fs := newNTFS()
	d, _ := fs.MkdirAll(`\dir`, 0)
	f, _ := fs.CreateFile(`\dir\f`, 50, types.AttrNormal, 0)
	if st := fs.Remove(d); st != types.StatusAccessDenied {
		t.Errorf("remove non-empty dir: %v", st)
	}
	if st := fs.Remove(f); st.IsError() {
		t.Errorf("remove file: %v", st)
	}
	if fs.UsedBytes != 0 || fs.FileCount != 0 {
		t.Errorf("after remove: used=%d files=%d", fs.UsedBytes, fs.FileCount)
	}
	if st := fs.Remove(d); st.IsError() {
		t.Errorf("remove now-empty dir: %v", st)
	}
	if _, st := fs.Lookup(`\dir`); st != types.StatusObjectNameNotFound {
		t.Errorf("lookup removed dir: %v", st)
	}
	if st := fs.Remove(fs.Root); st != types.StatusAccessDenied {
		t.Errorf("remove root: %v", st)
	}
}

func TestRename(t *testing.T) {
	fs := newNTFS()
	fs.MkdirAll(`\a`, 0)
	fs.MkdirAll(`\b`, 0)
	f, _ := fs.CreateFile(`\a\f.tmp`, 10, types.AttrNormal, 0)
	if st := fs.Rename(f, `\b\f.doc`); st.IsError() {
		t.Fatalf("rename: %v", st)
	}
	if f.Path() != `\b\f.doc` {
		t.Errorf("path after rename = %q", f.Path())
	}
	if _, st := fs.Lookup(`\a\f.tmp`); !st.IsError() {
		t.Error("old name still resolves")
	}
	if n, st := fs.Lookup(`\b\f.doc`); st.IsError() || n != f {
		t.Error("new name does not resolve to node")
	}
	g, _ := fs.CreateFile(`\a\g`, 1, types.AttrNormal, 0)
	if st := fs.Rename(g, `\b\f.doc`); st != types.StatusObjectNameCollision {
		t.Errorf("rename onto existing: %v", st)
	}
}

func TestWalkAndCounts(t *testing.T) {
	fs := newNTFS()
	fs.MkdirAll(`\x\y`, 0)
	fs.CreateFile(`\x\a`, 1, types.AttrNormal, 0)
	fs.CreateFile(`\x\y\b`, 2, types.AttrNormal, 0)
	var files, dirs int
	fs.Walk(func(n *Node) bool {
		if n.IsDir() {
			dirs++
		} else {
			files++
		}
		return true
	})
	if files != 2 || dirs != 3 {
		t.Errorf("walk saw %d files %d dirs", files, dirs)
	}
	// Prune subtree.
	var seen int
	fs.Walk(func(n *Node) bool {
		seen++
		return n.Name != "y"
	})
	if seen != 4 { // root, x, a, y (pruned below)
		t.Errorf("pruned walk saw %d nodes", seen)
	}
}

func TestPathAndExt(t *testing.T) {
	fs := newNTFS()
	fs.MkdirAll(`\winnt\system32`, 0)
	n, _ := fs.CreateFile(`\winnt\system32\KERNEL32.DLL`, 350000, types.AttrNormal, 0)
	if n.Path() != `\winnt\system32\KERNEL32.DLL` {
		t.Errorf("Path = %q", n.Path())
	}
	if n.Ext() != "dll" {
		t.Errorf("Ext = %q", n.Ext())
	}
	if fs.Root.Path() != `\` {
		t.Errorf("root path = %q", fs.Root.Path())
	}
	noext, _ := fs.CreateFile(`\README`, 1, types.AttrNormal, 0)
	if noext.Ext() != "" {
		t.Errorf("no-ext = %q", noext.Ext())
	}
}

func TestChildrenMatchesChildNames(t *testing.T) {
	fs := newNTFS()
	for _, name := range []string{`\c`, `\A`, `\b`} {
		fs.CreateFile(name, 1, types.AttrNormal, 0)
	}
	fs.MkdirAll(`\Dir`, 0)
	got := fs.Root.Children()
	names := fs.Root.ChildNames()
	if len(got) != len(names) || len(names) != 4 {
		t.Fatalf("Children = %v, want the %d children of ChildNames", got, len(names))
	}
	for i, name := range names {
		if c := got[i]; c != fs.Root.Child(name) {
			t.Errorf("child %d = %q, want %q", i, c.Name, name)
		}
	}
	if f := fs.Root.Child("c"); f.Children() != nil || len(f.ChildNames()) != 0 {
		t.Errorf("a file lists children")
	}
}

func TestChildNamesSorted(t *testing.T) {
	fs := newNTFS()
	for _, name := range []string{`\c`, `\a`, `\b`} {
		fs.CreateFile(name, 1, types.AttrNormal, 0)
	}
	names := fs.Root.ChildNames()
	if len(names) != 3 || names[0] != "a" || names[2] != "c" {
		t.Errorf("ChildNames = %v", names)
	}
}

func TestCreateInAndMkdirAllIn(t *testing.T) {
	fs := newNTFS()
	dir, _ := fs.MkdirAll(`\dir`, 0)
	f, st := fs.CreateIn(dir, "f.txt", 10, types.AttrNormal, 0)
	if st.IsError() {
		t.Fatalf("CreateIn: %v", st)
	}
	if n, st := fs.Lookup(`\dir\f.txt`); st.IsError() || n != f {
		t.Errorf("created file does not resolve: %v", st)
	}
	sub, st := fs.MkdirAllIn(dir, `x\y`, 0)
	if st.IsError() {
		t.Fatalf("MkdirAllIn: %v", st)
	}
	if n, st := fs.Lookup(`\dir\x\y`); st.IsError() || n != sub {
		t.Errorf("made directory does not resolve: %v", st)
	}
	if again, st := fs.MkdirAllIn(dir, `x\y`, 0); st.IsError() || again != sub {
		t.Errorf("MkdirAllIn of an existing directory: %v", st)
	}
	if fs.FileCount != 1 || fs.DirCount != 4 || fs.UsedBytes != 10 {
		t.Errorf("counts %d files, %d dirs, %d bytes; want 1, 4, 10", fs.FileCount, fs.DirCount, fs.UsedBytes)
	}
}

// TestCreateInFailures checks that the node-based create fails with the
// status the path form gives for the same target, and that a failed create
// changes no count.
func TestCreateInFailures(t *testing.T) {
	fs := New(volume.FlavorNTFS, 1000)
	dir, _ := fs.MkdirAll(`\dir`, 0)
	file, _ := fs.CreateIn(dir, "a.txt", 600, types.AttrNormal, 0)
	gone, _ := fs.MkdirAll(`\gone`, 0)
	if st := fs.Remove(gone); st.IsError() {
		t.Fatal(st)
	}
	for _, c := range []struct {
		name   string
		parent *Node
		child  string
		size   int64
		path   string
		want   types.Status
	}{
		{"case-insensitive collision", dir, "A.TXT", 1, `\dir\A.TXT`, types.StatusObjectNameCollision},
		{"disk full", dir, "b.txt", 401, `\dir\b.txt`, types.StatusDiskFull},
		{"file parent", file, "c", 1, `\dir\a.txt\c`, types.StatusNotADirectory},
		{"unlinked parent", gone, "d", 1, `\gone\d`, types.StatusObjectPathNotFound},
	} {
		files, dirs, used := fs.FileCount, fs.DirCount, fs.UsedBytes
		if _, st := fs.CreateIn(c.parent, c.child, c.size, types.AttrNormal, 0); st != c.want {
			t.Errorf("%s: CreateIn gave %v, want %v", c.name, st, c.want)
		}
		if _, st := fs.CreateFile(c.path, c.size, types.AttrNormal, 0); st != c.want {
			t.Errorf("%s: CreateFile gave %v, want %v", c.name, st, c.want)
		}
		if fs.FileCount != files || fs.DirCount != dirs || fs.UsedBytes != used {
			t.Errorf("%s: counts moved to %d files, %d dirs, %d bytes from %d, %d, %d",
				c.name, fs.FileCount, fs.DirCount, fs.UsedBytes, files, dirs, used)
		}
	}
	for _, c := range []struct {
		name   string
		parent *Node
		rel    string
		want   types.Status
	}{
		{"file parent", file, `x\y`, types.StatusNotADirectory},
		{"file parent, empty path", file, "", types.StatusNotADirectory},
		{"file in the path", dir, `a.txt\y`, types.StatusNotADirectory},
		{"unlinked parent", gone, "x", types.StatusObjectPathNotFound},
		{"unlinked parent, empty path", gone, "", types.StatusObjectPathNotFound},
	} {
		dirs := fs.DirCount
		if _, st := fs.MkdirAllIn(c.parent, c.rel, 0); st != c.want {
			t.Errorf("MkdirAllIn %s: %v, want %v", c.name, st, c.want)
		}
		if fs.DirCount != dirs {
			t.Errorf("MkdirAllIn %s: DirCount moved to %d from %d", c.name, fs.DirCount, dirs)
		}
	}
	if gone.NumChildren() != 0 || file.IsDir() {
		t.Error("a failed create attached a node")
	}
}
