package fsys

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/ntos/types"
	"repro/internal/ntos/volume"
	"repro/internal/sim"
)

// TestRandomOperationSequencesPreserveInvariants drives random
// create/resize/rename/remove sequences and checks the accounting
// invariants after every step:
//   - UsedBytes equals the sum of file sizes in the tree,
//   - FileCount/DirCount match a fresh walk,
//   - every reachable node's Path() resolves back to itself.
func TestRandomOperationSequencesPreserveInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		fs := New(volume.FlavorNTFS, 1<<24)
		var files []*Node
		var dirs []*Node
		dirs = append(dirs, fs.Root)

		check := func() bool {
			var bytes int64
			var nf, nd int
			ok := true
			fs.Walk(func(n *Node) bool {
				if n.IsDir() {
					nd++
				} else {
					nf++
					bytes += n.Size
				}
				if got, st := fs.Lookup(n.Path()); st.IsError() || got != n {
					ok = false
				}
				return true
			})
			return ok && bytes == fs.UsedBytes && nf == fs.FileCount && nd == fs.DirCount
		}

		for op := 0; op < 120; op++ {
			switch rng.Intn(5) {
			case 0: // create file
				d := dirs[rng.Intn(len(dirs))]
				name := fmt.Sprintf("f%d", op)
				path := d.Path()
				if path == `\` {
					path = ""
				}
				n, st := fs.CreateFile(path+`\`+name, rng.Int63n(10000), types.AttrNormal, sim.Time(op))
				if !st.IsError() {
					files = append(files, n)
				}
			case 1: // create dir
				d := dirs[rng.Intn(len(dirs))]
				path := d.Path()
				if path == `\` {
					path = ""
				}
				n, st := fs.Mkdir(path+fmt.Sprintf(`\d%d`, op), sim.Time(op))
				if !st.IsError() {
					dirs = append(dirs, n)
				}
			case 2: // resize
				if len(files) > 0 {
					n := files[rng.Intn(len(files))]
					if !n.Orphaned() {
						fs.SetSize(n, rng.Int63n(20000), sim.Time(op))
					}
				}
			case 3: // remove a file
				if len(files) > 0 {
					i := rng.Intn(len(files))
					if !files[i].Orphaned() {
						fs.Remove(files[i])
					}
					files = append(files[:i], files[i+1:]...)
				}
			case 4: // rename a file into another directory
				if len(files) > 0 {
					n := files[rng.Intn(len(files))]
					if n.Orphaned() {
						continue
					}
					d := dirs[rng.Intn(len(dirs))]
					path := d.Path()
					if path == `\` {
						path = ""
					}
					fs.Rename(n, path+fmt.Sprintf(`\r%d`, op))
				}
			}
			if !check() {
				t.Logf("invariant broken at op %d (seed %d)", op, seed)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 20}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestCapacityNeverExceeded: no random sequence of creates and grows may
// push UsedBytes past CapacityBytes.
func TestCapacityNeverExceeded(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		fs := New(volume.FlavorNTFS, 50_000)
		var nodes []*Node
		for op := 0; op < 200; op++ {
			if rng.Bool(0.6) || len(nodes) == 0 {
				n, st := fs.CreateFile(fmt.Sprintf(`\f%d`, op), rng.Int63n(5000), types.AttrNormal, 0)
				if !st.IsError() {
					nodes = append(nodes, n)
				}
			} else {
				fs.SetSize(nodes[rng.Intn(len(nodes))], rng.Int63n(30000), 0)
			}
			if fs.UsedBytes > fs.CapacityBytes {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// mapOrder is the walk order as it was computed before directories cached
// it: the directory's map listed and sorted by key on every call.
func mapOrder(d *Node) []*Node {
	keys := make([]string, 0, len(d.dir.children))
	for key := range d.dir.children {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	out := make([]*Node, len(keys))
	for i, key := range keys {
		out[i] = d.dir.children[key]
	}
	return out
}

// childPath is the full path of name under directory d.
func childPath(d *Node, name string) string {
	if d.Parent == nil {
		return `\` + name
	}
	return d.Path() + `\` + name
}

// TestWalkOrderTracksChanges drives random creates (files, directories
// and names that collide case-insensitively), removes, and renames within
// and across directories, interleaved with walks, and checks after every
// step that each directory's cached walk order equals its map listed and
// sorted afresh, and that FS.Walk visits the tree in that order.
func TestWalkOrderTracksChanges(t *testing.T) {
	names := []string{"a", "A", "b", "B.txt", "b.TXT", "c", "Cc", "cC", "d.dll", "D.DLL"}
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		fs := New(volume.FlavorNTFS, 1<<30)
		dirs := []*Node{fs.Root}
		var files []*Node
		live := func(ns []*Node) []*Node {
			out := ns[:0]
			for _, n := range ns {
				if n.Parent != nil || n == fs.Root {
					out = append(out, n)
				}
			}
			return out
		}
		check := func(op int) bool {
			var want []*Node
			var rec func(n *Node)
			rec = func(n *Node) {
				want = append(want, n)
				if !n.IsDir() {
					return
				}
				for _, c := range mapOrder(n) {
					rec(c)
				}
			}
			rec(fs.Root)
			var got []*Node
			fs.Walk(func(n *Node) bool {
				got = append(got, n)
				return true
			})
			if !slices.Equal(got, want) {
				t.Logf("op %d (seed %d): Walk visits %d nodes out of map order", op, seed, len(got))
				return false
			}
			for _, n := range want {
				if n.IsDir() && !slices.Equal(n.Children(), mapOrder(n)) {
					t.Logf("op %d (seed %d): %s: Children %v, map order %v", op, seed, n.Path(), n.Children(), mapOrder(n))
					return false
				}
			}
			return true
		}
		for op := 0; op < 200; op++ {
			dirs, files = live(dirs), live(files)
			name := names[rng.Intn(len(names))]
			d := dirs[rng.Intn(len(dirs))]
			switch rng.Intn(6) {
			case 0: // create a file
				if n, st := fs.CreateIn(d, name, rng.Int63n(1000), types.AttrNormal, sim.Time(op)); !st.IsError() {
					files = append(files, n)
				}
			case 1: // create a directory
				if n, st := fs.Mkdir(childPath(d, name), sim.Time(op)); !st.IsError() {
					dirs = append(dirs, n)
				}
			case 2: // remove a file or an (empty) directory
				all := append(slices.Clone(files), dirs[1:]...)
				if len(all) > 0 {
					fs.Remove(all[rng.Intn(len(all))])
				}
			case 3: // rename a file or directory within its directory
				all := append(slices.Clone(files), dirs[1:]...)
				if len(all) > 0 {
					n := all[rng.Intn(len(all))]
					fs.Rename(n, childPath(n.Parent, name))
				}
			case 4, 5: // move a file into another directory
				if len(files) > 0 {
					n := files[rng.Intn(len(files))]
					fs.Rename(n, childPath(d, name))
				}
			}
			if !check(op) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
