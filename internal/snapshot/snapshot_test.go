package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/fsgen"
	"repro/internal/ntos/fsys"
	"repro/internal/ntos/machine"
	"repro/internal/ntos/types"
	"repro/internal/ntos/volume"
	"repro/internal/sim"
)

func buildFS(t testing.TB) *fsys.FS {
	t.Helper()
	fs := fsys.New(volume.FlavorNTFS, 1<<30)
	fs.MkdirAll(`\winnt\profiles\alice\Temporary Internet Files`, 10)
	fs.MkdirAll(`\docs`, 10)
	fs.CreateFile(`\docs\a.txt`, 100, types.AttrNormal, 20)
	fs.CreateFile(`\docs\b.doc`, 2000, types.AttrNormal, 30)
	fs.CreateFile(`\winnt\profiles\alice\Temporary Internet Files\x.gif`, 500, types.AttrNormal, 40)
	return fs
}

// records streams every record of s into a slice.
func records(t testing.TB, s *Snapshot) []WalkRecord {
	t.Helper()
	var out []WalkRecord
	if err := s.Each(func(r *WalkRecord) { out = append(out, *r) }); err != nil {
		t.Fatal(err)
	}
	return out
}

// files returns the non-directory records of s.
func files(t testing.TB, s *Snapshot) []WalkRecord {
	t.Helper()
	var out []WalkRecord
	for _, r := range records(t, s) {
		if !r.IsDir {
			out = append(out, r)
		}
	}
	return out
}

// entries is Entries for a snapshot whose records are valid.
func entries(t testing.TB, s *Snapshot) []Entry {
	t.Helper()
	es, err := s.Entries()
	if err != nil {
		t.Fatal(err)
	}
	return es
}

// compare is Compare for snapshots whose records are valid.
func compare(t testing.TB, oldSnap, newSnap *Snapshot) Diff {
	t.Helper()
	d, err := Compare(oldSnap, newSnap)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// decodeAll is Decode followed by a pass over every record: the checks
// a corpus load and a render of the snapshot make between them.
func decodeAll(data []byte) (*Snapshot, error) {
	s, err := Decode(data)
	if err != nil {
		return nil, err
	}
	if err := s.Each(func(*WalkRecord) {}); err != nil {
		return nil, err
	}
	return s, nil
}

// mustNew is New for records a walk could produce.
func mustNew(t testing.TB, machine, vol string, takenAt sim.Time, recs []WalkRecord) *Snapshot {
	t.Helper()
	s, err := New(machine, vol, takenAt, recs)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// image is the file image s writes.
func image(t testing.TB, s *Snapshot) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := s.Write(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// structTake is Take as it was before snapshots were encoded as they are
// taken: the walk built as a slice of records, to be encoded afterwards.
func structTake(fs *fsys.FS) []WalkRecord {
	walk := make([]WalkRecord, 0, fs.FileCount+fs.DirCount)
	var rec func(n *fsys.Node, depth int)
	rec = func(n *fsys.Node, depth int) {
		walk = append(walk, WalkRecord{
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
		w := &walk[len(walk)-1] // valid until rec appends
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
	return walk
}

// structEncode is the encoder Write ran over such a slice.
func structEncode(machine, vol string, takenAt sim.Time, walk []WalkRecord) []byte {
	nameBytes := 0
	for i := range walk {
		nameBytes += len(walk[i].Name)
	}
	b := append([]byte(nil), magic...)
	b = appendString(b, machine)
	b = appendString(b, vol)
	b = binary.AppendVarint(b, int64(takenAt))
	b = binary.AppendUvarint(b, uint64(len(walk)))
	b = binary.AppendUvarint(b, uint64(nameBytes))
	for i := range walk {
		r := &walk[i]
		b = binary.AppendUvarint(b, uint64(r.Depth))
		if r.IsDir {
			b = append(b, flagDir)
		} else {
			b = append(b, 0)
		}
		b = binary.AppendVarint(b, r.Size)
		b = binary.AppendVarint(b, int64(r.Created))
		b = binary.AppendVarint(b, int64(r.LastModified))
		b = binary.AppendVarint(b, int64(r.LastAccessed))
		if r.IsDir {
			b = binary.AppendVarint(b, int64(r.NumFiles))
			b = binary.AppendVarint(b, int64(r.NumSubdirs))
		}
		b = appendString(b, r.Name)
	}
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// checkTakeBytes checks that Take of fs encodes, byte for byte, what the
// struct walk and its encoder give, and that the image is exactly sized.
func checkTakeBytes(t *testing.T, fs *fsys.FS, what string) {
	t.Helper()
	got := Take("m", `C:`, fs, 7)
	img := image(t, got)
	if want := structEncode("m", `C:`, 7, structTake(fs)); !bytes.Equal(img, want) {
		t.Fatalf("%s: Take encoded %d bytes, the struct walk %d, and they differ", what, len(img), len(want))
	}
	if cap(got.file) != len(got.file) {
		t.Errorf("%s: image cap %d, len %d: not sized exactly", what, cap(got.file), len(got.file))
	}
}

func TestTakeCountsAndBytes(t *testing.T) {
	fs := buildFS(t)
	snap := Take("m1", `C:`, fs, 100)
	if snap.Machine != "m1" || snap.TakenAt != 100 {
		t.Errorf("header: %+v", snap)
	}
	fl := files(t, snap)
	if len(fl) != 3 {
		t.Fatalf("files = %d", len(fl))
	}
	var total int64
	for _, f := range fl {
		total += f.Size
	}
	if total != 2600 {
		t.Errorf("file bytes = %d", total)
	}
	// root, winnt, profiles, alice, TIF, docs.
	if dirs := snap.Len() - len(fl); dirs != 6 {
		t.Errorf("dirs = %d", dirs)
	}
}

func TestDirectoryFanOutRecorded(t *testing.T) {
	fs := buildFS(t)
	snap := Take("m1", `C:`, fs, 100)
	for _, e := range entries(t, snap) {
		if e.Path == `\docs` {
			if e.Rec.NumFiles != 2 || e.Rec.NumSubdirs != 0 {
				t.Errorf("docs fan-out: %+v", e.Rec)
			}
			return
		}
	}
	t.Fatal("\\docs not found in snapshot")
}

func TestTreeRecoverable(t *testing.T) {
	// §3.1: "in such a way that the original tree can be recovered".
	fs := buildFS(t)
	snap := Take("m1", `C:`, fs, 100)
	paths := map[string]bool{}
	for _, e := range entries(t, snap) {
		paths[e.Path] = true
	}
	for _, want := range []string{
		`\`, `\docs`, `\docs\a.txt`, `\docs\b.doc`,
		`\winnt\profiles\alice\Temporary Internet Files\x.gif`,
	} {
		if !paths[want] {
			t.Errorf("path %q not recoverable from walk records", want)
		}
	}
}

func TestShortNamesKeepExtension(t *testing.T) {
	fs := fsys.New(volume.FlavorNTFS, 1<<30)
	long := strings.Repeat("verylongname", 6) + ".html"
	fs.CreateFile(`\`+long, 10, types.AttrNormal, 0)
	snap := Take("m", `C:`, fs, 0)
	for _, f := range files(t, snap) {
		if len(f.Name) > 40 {
			t.Errorf("name not shortened: %q (%d chars)", f.Name, len(f.Name))
		}
		if f.Ext() != "html" {
			t.Errorf("extension lost in shortening: %q", f.Name)
		}
	}
}

func TestCompareDiff(t *testing.T) {
	fs := buildFS(t)
	old := Take("m1", `C:`, fs, 100)

	// Mutate: add one file, change one, remove one.
	fs.CreateFile(`\docs\new.txt`, 50, types.AttrNormal, 200)
	n, _ := fs.Lookup(`\docs\a.txt`)
	fs.SetSize(n, 150, 210)
	b, _ := fs.Lookup(`\docs\b.doc`)
	fs.Remove(b)

	cur := Take("m1", `C:`, fs, 300)
	d := compare(t, old, cur)
	if len(d.Added) != 1 || d.Added[0].Path != `\docs\new.txt` {
		t.Errorf("Added = %+v", d.Added)
	}
	if len(d.Changed) != 1 || d.Changed[0].Path != `\docs\a.txt` {
		t.Errorf("Changed = %+v", d.Changed)
	}
	if len(d.Removed) != 1 || d.Removed[0].Path != `\docs\b.doc` {
		t.Errorf("Removed = %+v", d.Removed)
	}
}

func TestFractionUnder(t *testing.T) {
	fs := buildFS(t)
	old := Take("m1", `C:`, fs, 100)
	// Two changes under the profile, one outside.
	fs.CreateFile(`\winnt\profiles\alice\Temporary Internet Files\y.gif`, 10, types.AttrNormal, 200)
	fs.CreateFile(`\winnt\profiles\alice\z.dat`, 10, types.AttrNormal, 200)
	fs.CreateFile(`\docs\out.txt`, 10, types.AttrNormal, 200)
	cur := Take("m1", `C:`, fs, 300)
	d := compare(t, old, cur)
	if got := d.FractionUnder(`\winnt\profiles`); got < 0.66 || got > 0.67 {
		t.Errorf("FractionUnder(profiles) = %v, want 2/3", got)
	}
	if got := d.FractionUnder(`\winnt\profiles\alice\Temporary Internet Files`); got < 0.33 || got > 0.34 {
		t.Errorf("FractionUnder(WWW cache) = %v, want 1/3", got)
	}
}

func TestFATTimesZeroInSnapshot(t *testing.T) {
	fs := fsys.New(volume.FlavorFAT, 1<<30)
	fs.CreateFile(`\f.dat`, 10, types.AttrNormal, sim.Time(5*sim.Second))
	snap := Take("m", `C:`, fs, sim.Time(10*sim.Second))
	for _, f := range files(t, snap) {
		if f.Created != 0 || f.LastAccessed != 0 {
			t.Errorf("FAT snapshot carries created/accessed times: %+v", f)
		}
		if f.LastModified == 0 {
			t.Error("FAT snapshot lost modified time")
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	fs := buildFS(t)
	snap := Take("m1", `C:`, fs, 100)
	var buf bytes.Buffer
	if err := snap.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte(magic)) {
		t.Fatalf("Write did not produce the %s format", magic)
	}
	got, err := Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.Machine != snap.Machine || got.Volume != snap.Volume || got.TakenAt != snap.TakenAt || got.Len() != snap.Len() {
		t.Errorf("header differs: got %s %s %d (%d records), want %s %s %d (%d)",
			got.Machine, got.Volume, got.TakenAt, got.Len(), snap.Machine, snap.Volume, snap.TakenAt, snap.Len())
	}
	if recs, want := records(t, got), records(t, snap); !reflect.DeepEqual(recs, want) {
		t.Errorf("round trip differs:\n got %+v\nwant %+v", recs, want)
	}
	// A decoded snapshot writes the bytes it was decoded from.
	var again bytes.Buffer
	if err := got.Write(&again); err != nil || !bytes.Equal(again.Bytes(), buf.Bytes()) {
		t.Errorf("decoded snapshot rewrote %d bytes (err %v), read %d", again.Len(), err, buf.Len())
	}
}

// TestTakeMatchesChildNamesWalk checks the one-listing walk against the
// plain ChildNames/Child recursion on a generated volume: same records,
// same order, and the image encoded as the struct walk's encoder gives
// it, at its exact size.
func TestTakeMatchesChildNamesWalk(t *testing.T) {
	fs := fsys.New(volume.FlavorNTFS, 4<<30)
	fsgen.PopulateLocal(fs, sim.NewRNG(3), fsgen.Config{User: "alice", Category: machine.Personal, Now: sim.Time(30 * sim.Day)})
	var want []WalkRecord
	var rec func(n *fsys.Node, depth int)
	rec = func(n *fsys.Node, depth int) {
		w := WalkRecord{Name: shortName(n.Name), Depth: depth, IsDir: n.IsDir(), Size: n.Size,
			Created: n.Created, LastModified: n.LastModified, LastAccessed: n.LastAccessed}
		for _, name := range n.ChildNames() {
			if n.Child(name).IsDir() {
				w.NumSubdirs++
			} else {
				w.NumFiles++
			}
		}
		want = append(want, w)
		for _, name := range n.ChildNames() {
			rec(n.Child(name), depth+1)
		}
	}
	rec(fs.Root, 0)
	got := records(t, Take("m", `C:`, fs, 0))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Take differs from the ChildNames walk (%d vs %d records)", len(got), len(want))
	}
	checkTakeBytes(t, fs, "generated volume")
}

// TestTakeAllocsFixed checks that a walk of an unchanged tree allocates
// the same few times whatever its record count: the image is sized before
// it is encoded, so it never grows.
func TestTakeAllocsFixed(t *testing.T) {
	small := buildFS(t)
	big := fsys.New(volume.FlavorNTFS, 4<<30)
	fsgen.PopulateLocal(big, sim.NewRNG(3), fsgen.Config{User: "alice", Category: machine.Personal, Now: sim.Time(30 * sim.Day)})
	allocs := func(fs *fsys.FS) float64 {
		Take("m", `C:`, fs, 0) // sorts every changed directory once
		return testing.AllocsPerRun(5, func() { Take("m", `C:`, fs, 0) })
	}
	a, b := allocs(small), allocs(big)
	if a != b || a > 6 {
		t.Errorf("Take allocates %v times for %d records, %v for %d; want one fixed count of at most 6",
			a, small.FileCount+small.DirCount, b, big.FileCount+big.DirCount)
	}
}

// uncachedTake is Take as it walked before directories cached their walk
// order: each directory listed afresh and sorted by key. It lists the
// test's own record of every directory's children, keyed by lower-cased
// name as fsys keys them, so no cached order is read.
func uncachedTake(fs *fsys.FS, kids map[*fsys.Node]map[string]*fsys.Node) []WalkRecord {
	var out []WalkRecord
	var rec func(n *fsys.Node, depth int)
	rec = func(n *fsys.Node, depth int) {
		out = append(out, WalkRecord{Name: shortName(n.Name), Depth: depth, IsDir: n.IsDir(), Size: n.Size,
			Created: n.Created, LastModified: n.LastModified, LastAccessed: n.LastAccessed})
		if !n.IsDir() {
			return
		}
		w := len(out) - 1
		keys := make([]string, 0, len(kids[n]))
		for k := range kids[n] {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if kids[n][k].IsDir() {
				out[w].NumSubdirs++
			} else {
				out[w].NumFiles++
			}
		}
		for _, k := range keys {
			rec(kids[n][k], depth+1)
		}
	}
	rec(fs.Root, 0)
	return out
}

// TestTakeMatchesUncachedWalk drives random creates (with case-colliding
// names), removes, resizes and renames within and across directories,
// and after every step compares Take with uncachedTake: the cached walk
// order must give the records, and the order, of a walk that sorts every
// directory afresh. The image must be the struct walk's encoding.
func TestTakeMatchesUncachedWalk(t *testing.T) {
	names := []string{"a", "A", "b.txt", "B.TXT", "c", "Cc", "cC", "d.dll"}
	for seed := uint64(1); seed <= 20; seed++ {
		rng := sim.NewRNG(seed)
		fs := fsys.New(volume.FlavorNTFS, 1<<30)
		kids := map[*fsys.Node]map[string]*fsys.Node{fs.Root: {}}
		dirs := []*fsys.Node{fs.Root}
		var files []*fsys.Node
		path := func(d *fsys.Node, name string) string {
			if d == fs.Root {
				return `\` + name
			}
			return d.Path() + `\` + name
		}
		for op := 0; op < 150; op++ {
			name := names[rng.Intn(len(names))]
			d := dirs[rng.Intn(len(dirs))]
			switch rng.Intn(6) {
			case 0, 1: // create a file or a directory
				var n *fsys.Node
				var st types.Status
				if rng.Bool(0.5) {
					n, st = fs.CreateIn(d, name, rng.Int63n(5000), types.AttrNormal, sim.Time(op))
				} else {
					n, st = fs.Mkdir(path(d, name), sim.Time(op))
				}
				if st.IsError() {
					break
				}
				kids[d][strings.ToLower(name)] = n
				if n.IsDir() {
					kids[n] = map[string]*fsys.Node{}
					dirs = append(dirs, n)
				} else {
					files = append(files, n)
				}
			case 2: // remove a file
				if len(files) == 0 {
					break
				}
				i := rng.Intn(len(files))
				n := files[i]
				parent := n.Parent
				if fs.Remove(n).IsError() {
					t.Fatalf("seed %d op %d: remove failed", seed, op)
				}
				delete(kids[parent], strings.ToLower(n.Name))
				files = append(files[:i], files[i+1:]...)
			case 3: // resize a file
				if len(files) > 0 {
					fs.SetSize(files[rng.Intn(len(files))], rng.Int63n(5000), sim.Time(op))
				}
			case 4, 5: // rename a file within its directory or into another
				if len(files) == 0 {
					break
				}
				n := files[rng.Intn(len(files))]
				to := d
				if rng.Bool(0.5) {
					to = n.Parent
				}
				from, oldKey := n.Parent, strings.ToLower(n.Name)
				if fs.Rename(n, path(to, name)).IsError() {
					break
				}
				delete(kids[from], oldKey)
				kids[to][strings.ToLower(name)] = n
			}
			got := records(t, Take("m", `C:`, fs, sim.Time(op)))
			if want := uncachedTake(fs, kids); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d op %d: Take differs from the uncached walk (%d vs %d records)", seed, op, len(got), len(want))
			}
			checkTakeBytes(t, fs, fmt.Sprintf("seed %d op %d", seed, op))
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Decode([]byte("not a snapshot")); err == nil {
		t.Error("garbage accepted")
	}
}

// TestReadRejectsBadDepth is the regression for a negative depth, which
// the reader used to accept and Entries then panicked on (slice bounds
// out of range) — reachable from a served corpus through Section 5's
// Compare. New refuses one; the binary format cannot encode one that
// fits an int.
func TestReadRejectsBadDepth(t *testing.T) {
	if _, err := New("m", "", 0, []WalkRecord{{IsDir: true, NumFiles: 1}, {Name: "x", Depth: -1}}); !errors.Is(err, ErrCorrupt) {
		t.Errorf("New depth -1: err = %v, want ErrCorrupt", err)
	}
	// A binary depth of 2^63 does not fit an int.
	b := binary.AppendUvarint(binaryHeader(1, 1), 1<<63)
	b = append(b, 0, 0, 0, 0, 0, 1, 'x')
	if _, err := decodeAll(withCRC(b)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("binary depth 2^63: err = %v, want ErrCorrupt", err)
	}
}

// The binary format has no place for fan-out on a file, so New refuses
// a file record carrying it rather than silently dropping it.
func TestReadRejectsFileFanOut(t *testing.T) {
	for _, r := range []WalkRecord{{Name: "x", NumFiles: 2}, {Name: "x", NumSubdirs: 1}} {
		if _, err := New("m", "C:", 0, []WalkRecord{r}); !errors.Is(err, ErrCorrupt) {
			t.Errorf("New file with fan-out %+v: err = %v, want ErrCorrupt", r, err)
		}
	}
}

// binaryHeader and withCRC build hand-made FSSNAP01 inputs: machine "m",
// volume "C:", taken at 0.
func binaryHeader(records, nameBytes uint64) []byte {
	b := append([]byte(nil), magic...)
	b = appendString(b, "m")
	b = appendString(b, "C:")
	b = binary.AppendVarint(b, 0)
	b = binary.AppendUvarint(b, records)
	return binary.AppendUvarint(b, nameBytes)
}

func withCRC(b []byte) []byte {
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

func TestReadRejectsCorruptBinary(t *testing.T) {
	var buf bytes.Buffer
	if err := Take("m1", `C:`, buildFS(t), 100).Write(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	body := good[:len(good)-4]
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0x40
	file := []byte{0, 0, 0, 0, 0, 0, 1, 'x'} // depth 0, a file, zero size and times, name "x"
	cases := map[string][]byte{
		"truncated":          good[:len(good)-1],
		"bit flip":           flipped,
		"trailing byte":      append(append([]byte(nil), good...), 0),
		"trailing in body":   withCRC(append(append([]byte(nil), body...), 0)),
		"other version":      withCRC(append([]byte("FSSNAP02"), body[len(magic):]...)),
		"count beyond input": withCRC(append(binaryHeader(1<<40, 1), file...)),
		"name bytes short":   withCRC(append(binaryHeader(1, 0), file...)),
		"name bytes long":    withCRC(append(binaryHeader(1, 2), file...)),
		"unknown flag":       withCRC(append(binaryHeader(1, 1), 0, 2, 0, 0, 0, 0, 1, 'x')),
	}
	for name, in := range cases {
		if _, err := decodeAll(in); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
	// What the header step sees fails Decode itself, so a corpus load
	// fails on it; the rest fails the first pass over the records.
	for _, name := range []string{"truncated", "bit flip", "trailing byte", "other version", "count beyond input"} {
		if _, err := Decode(cases[name]); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Decode err = %v, want ErrCorrupt", name, err)
		}
	}
	if _, err := decodeAll(withCRC(append(binaryHeader(1, 1), file...))); err != nil {
		t.Errorf("hand-made valid snapshot rejected: %v", err)
	}
}

// FuzzSnapshotRead feeds Decode arbitrary bytes, then streams every
// record of what it accepts, seeded with a real snapshot, an empty one
// and a generated volume's (about a megabyte). The header step must
// allocate O(header) whatever the record count; streaming must stay
// within 16× the input; and every input must be rejected or decode to
// records whose re-encoding decodes deep-equal, while the decoded
// snapshot writes its input back unchanged.
func FuzzSnapshotRead(f *testing.F) {
	vol := fsys.New(volume.FlavorNTFS, 4<<30)
	fsgen.PopulateLocal(vol, sim.NewRNG(3), fsgen.Config{User: "alice", Category: machine.Personal, Now: sim.Time(30 * sim.Day)})
	for _, snap := range []*Snapshot{Take("m1", `C:`, buildFS(f), 100), mustNew(f, "m1", `C:`, 0, nil), Take("m2", `C:`, vol, 0)} {
		var bin bytes.Buffer
		if err := snap.Write(&bin); err != nil {
			f.Fatal(err)
		}
		f.Add(bin.Bytes())
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := Decode(in)
		runtime.ReadMemStats(&after)
		// The header step allocates the snapshot and its machine and
		// volume strings (a rejected input's are bounded by its size),
		// plus a fixed margin.
		header := uint64(len(in))
		if err == nil {
			header = uint64(len(got.Machine) + len(got.Volume))
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > header+64<<10 {
			t.Fatalf("Decode of %d bytes allocated %d bytes", len(in), grew)
		}
		if err != nil {
			return
		}
		// Streaming passes one reused record and slices every name from
		// one arena of at most the input's size.
		runtime.ReadMemStats(&before)
		err = got.Each(func(*WalkRecord) {})
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 16*uint64(len(in))+1<<20 {
			t.Fatalf("streaming %d bytes allocated %d bytes", len(in), grew)
		}
		if err != nil {
			return
		}
		recs := records(t, got)
		var re bytes.Buffer
		enc, err := New(got.Machine, got.Volume, got.TakenAt, recs)
		if err == nil {
			err = enc.Write(&re)
		}
		if err != nil {
			t.Fatalf("decoded snapshot does not re-encode: %v", err)
		}
		again, err := decodeAll(re.Bytes())
		if err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		if again.Machine != got.Machine || again.Volume != got.Volume || again.TakenAt != got.TakenAt || !reflect.DeepEqual(records(t, again), recs) {
			t.Fatalf("re-encoding changed the snapshot:\n got %+v\nwant %+v", records(t, again), recs)
		}
		var same bytes.Buffer
		if err := got.Write(&same); err != nil || !bytes.Equal(same.Bytes(), in) {
			t.Fatalf("decoded snapshot wrote %d bytes (err %v), not its %d-byte input", same.Len(), err, len(in))
		}
		got.Entries() // must not panic on any accepted input
	})
}

// joinedPaths is the path reconstruction Compare used before each path
// was built from its parent's: every ancestor name joined afresh.
func joinedPaths(t testing.TB, s *Snapshot) []string {
	recs := records(t, s)
	out := make([]string, len(recs))
	stack := make([]string, 0, 16)
	for i, r := range recs {
		if r.Depth == 0 {
			out[i] = `\`
			stack = stack[:0]
			continue
		}
		if r.Depth-1 < len(stack) {
			stack = stack[:r.Depth-1]
		}
		parts := append(append([]string{}, stack...), r.Name)
		out[i] = `\` + strings.Join(parts, `\`)
		if r.IsDir {
			stack = append(stack, r.Name)
		}
	}
	return out
}

// mapCompare is Compare as written before it resolved each snapshot once:
// map-keyed, lower-casing old paths twice.
func mapCompare(t testing.TB, oldSnap, newSnap *Snapshot) Diff {
	entries := func(s *Snapshot) []Entry {
		var out []Entry
		recs := records(t, s)
		for i, p := range joinedPaths(t, s) {
			out = append(out, Entry{Path: p, Rec: recs[i]})
		}
		return out
	}
	oldBy := map[string]WalkRecord{}
	for _, e := range entries(oldSnap) {
		oldBy[strings.ToLower(e.Path)] = e.Rec
	}
	var d Diff
	seen := map[string]bool{}
	for _, e := range entries(newSnap) {
		key := strings.ToLower(e.Path)
		seen[key] = true
		oldRec, ok := oldBy[key]
		switch {
		case !ok:
			d.Added = append(d.Added, e)
		case !e.Rec.IsDir && (oldRec.Size != e.Rec.Size || oldRec.LastModified != e.Rec.LastModified):
			d.Changed = append(d.Changed, e)
		}
	}
	for _, e := range entries(oldSnap) {
		if !seen[strings.ToLower(e.Path)] {
			d.Removed = append(d.Removed, e)
		}
	}
	sort.Slice(d.Added, func(i, j int) bool { return d.Added[i].Path < d.Added[j].Path })
	sort.Slice(d.Removed, func(i, j int) bool { return d.Removed[i].Path < d.Removed[j].Path })
	sort.Slice(d.Changed, func(i, j int) bool { return d.Changed[i].Path < d.Changed[j].Path })
	return d
}

// randomWalk builds a record sequence that is mostly a well-formed
// pre-order walk but also holds depth jumps, files with children, a
// second root and names equal but for case, so paths collide when
// lower-cased.
func randomWalk(t testing.TB, rng *rand.Rand, n int) *Snapshot {
	names := []string{"a", "A", "b.txt", "B.TXT", "Profiles", "profiles", "x"}
	var walk []WalkRecord
	depth := 0
	for i := 0; i < n; i++ {
		switch r := rng.Intn(20); {
		case i == 0 || r == 0:
			depth = 0
		case r == 1:
			depth += 2 + rng.Intn(3)
		case r < 8:
			depth++
		default:
			depth = rng.Intn(depth + 1)
		}
		walk = append(walk, WalkRecord{
			Name:         names[rng.Intn(len(names))],
			Depth:        depth,
			IsDir:        rng.Intn(3) == 0,
			Size:         int64(rng.Intn(4)),
			LastModified: sim.Time(rng.Intn(3)),
		})
	}
	return mustNew(t, "m", `C:`, 0, walk)
}

// TestCompareMatchesJoinedPaths pins the one-pass Compare to the old
// map-keyed one, and parent-built paths to joined ones, on generated
// walks including malformed ones, and on a real walk before and after
// changes.
func TestCompareMatchesJoinedPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		a, b := randomWalk(t, rng, rng.Intn(200)), randomWalk(t, rng, rng.Intn(200))
		paths := []string{}
		for _, e := range entries(t, a) {
			paths = append(paths, e.Path)
		}
		if want := joinedPaths(t, a); !reflect.DeepEqual(paths, want) {
			t.Fatalf("trial %d: paths %q, joined %q", trial, paths, want)
		}
		if got, want := compare(t, a, b), mapCompare(t, a, b); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: Compare %+v, old Compare %+v", trial, got, want)
		}
	}
	fs := buildFS(t)
	old := Take("m1", `C:`, fs, 100)
	fs.CreateFile(`\docs\new.txt`, 50, types.AttrNormal, 200)
	n, _ := fs.Lookup(`\docs\a.txt`)
	fs.SetSize(n, 150, 210)
	cur := Take("m1", `C:`, fs, 300)
	if got, want := compare(t, old, cur), mapCompare(t, old, cur); !reflect.DeepEqual(got, want) {
		t.Fatalf("Compare %+v, old Compare %+v", got, want)
	}
}

// refDecoder is the field reader as it was before varints were read a
// word at a time: every varint through binary.Uvarint or binary.Varint.
// FuzzSnapshotEach holds decoder, and so Decode and Each, to it.
type refDecoder struct {
	buf []byte
	err error
}

func (d *refDecoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: bad %s", ErrCorrupt, what)
	}
	d.buf = nil
}

func (d *refDecoder) uvarint(what string) uint64 {
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fail(what)
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *refDecoder) varint(what string) int64 {
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		d.fail(what)
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *refDecoder) int(what string) int {
	v := d.varint(what)
	if v != int64(int(v)) {
		d.fail(what)
		return 0
	}
	return int(v)
}

func (d *refDecoder) byte(what string) byte {
	if len(d.buf) == 0 {
		d.fail(what)
		return 0
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b
}

func (d *refDecoder) count(unit int, what string) int {
	v := d.uvarint(what)
	if v > uint64(len(d.buf)/unit) {
		d.fail(what)
		return 0
	}
	return int(v)
}

func (d *refDecoder) bytes(what string) []byte {
	n := d.count(1, what)
	b := d.buf[:n:n]
	d.buf = d.buf[n:]
	return b
}

// refDecode is Decode over refDecoder.
func refDecode(data []byte) (*Snapshot, error) {
	if len(data) < len(magic)+4 || string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: not an %s snapshot", ErrCorrupt, magic)
	}
	body := data[:len(data)-4]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(data[len(body):]) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	d := refDecoder{buf: body[len(magic):]}
	s := &Snapshot{
		Machine: string(d.bytes("machine")),
		Volume:  string(d.bytes("volume")),
		TakenAt: sim.Time(d.varint("taken_at")),
	}
	s.count = d.count(minRecordBytes, "record count")
	s.nameBytes = d.count(1, "name bytes")
	if d.err != nil {
		return nil, d.err
	}
	s.file, s.recs = data, d.buf
	return s, nil
}

// refEach is Each over refDecoder, collecting the records it passes.
func refEach(s *Snapshot) ([]WalkRecord, error) {
	d := refDecoder{buf: s.recs}
	var out []WalkRecord
	names := 0
	for i := 0; i < s.count; i++ {
		var r WalkRecord
		if depth := d.uvarint("depth"); depth <= math.MaxInt {
			r.Depth = int(depth)
		} else {
			d.fail("depth")
		}
		switch flags := d.byte("flags"); flags {
		case 0:
		case flagDir:
			r.IsDir = true
		default:
			d.fail("flags")
		}
		r.Size = d.varint("size")
		r.Created = sim.Time(d.varint("created"))
		r.LastModified = sim.Time(d.varint("modified"))
		r.LastAccessed = sim.Time(d.varint("accessed"))
		if r.IsDir {
			r.NumFiles = d.int("files")
			r.NumSubdirs = d.int("subdirectories")
		}
		name := d.bytes("name")
		if names+len(name) > s.nameBytes {
			d.fail("name length")
		}
		if d.err != nil {
			break
		}
		names += len(name)
		r.Name = string(name)
		out = append(out, r)
	}
	err := d.err
	switch {
	case err != nil:
	case names != s.nameBytes:
		err = fmt.Errorf("%w: names hold %d bytes, header says %d", ErrCorrupt, names, s.nameBytes)
	case len(d.buf) != 0:
		err = fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(d.buf))
	}
	if err != nil && s.source != "" {
		err = fmt.Errorf("%s: %w", s.source, err)
	}
	return out, err
}

// FuzzSnapshotEach is a differential target: on any input, Decode must
// give refDecode's header or its error text, and on what it accepts Each
// must pass refEach's records and fail with its error text. The fuzzer's
// input is resealed with a fresh CRC, so a mutation of the body reaches
// the record parser. Seeds: a real walk, and one-record walks whose last
// time field is a varint of each length from 1 to 10 bytes, ending two
// to eight bytes before the end of the record section.
func FuzzSnapshotEach(f *testing.F) {
	add := func(s *Snapshot) {
		var bin bytes.Buffer
		if err := s.Write(&bin); err != nil {
			f.Fatal(err)
		}
		f.Add(bin.Bytes())
	}
	add(Take("m1", `C:`, buildFS(f), 100))
	for n := 1; n <= 10; n++ {
		zz := uint64(1) << (7 * (n - 1)) // the smallest zig-zag value of n bytes
		v := sim.Time(zz>>1) ^ -sim.Time(zz&1)
		for _, name := range []string{"", "a.b", "abcdef"} {
			add(mustNew(f, "m", `C:`, 0, []WalkRecord{{Name: name, LastAccessed: v}}))
		}
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) >= crc32.Size {
			body := in[: len(in)-crc32.Size : len(in)-crc32.Size]
			in = withCRC(body)
		}
		got, err := Decode(in)
		want, wantErr := refDecode(in)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("Decode err %v, reference %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if got.Machine != want.Machine || got.Volume != want.Volume || got.TakenAt != want.TakenAt ||
			got.count != want.count || got.nameBytes != want.nameBytes || len(got.recs) != len(want.recs) {
			t.Fatalf("Decode header %q %q %d %d %d, reference %q %q %d %d %d", got.Machine, got.Volume, got.TakenAt,
				got.count, got.nameBytes, want.Machine, want.Volume, want.TakenAt, want.count, want.nameBytes)
		}
		var recs []WalkRecord
		err = got.Each(func(r *WalkRecord) { recs = append(recs, *r) })
		wantRecs, wantErr := refEach(got)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("Each err %v, reference %v", err, wantErr)
		}
		if !reflect.DeepEqual(recs, wantRecs) {
			t.Fatalf("Each passed %d records, reference %d:\n got %+v\nwant %+v", len(recs), len(wantRecs), recs, wantRecs)
		}
	})
}

// BenchmarkSnapshotEach parses every record of a generated personal
// volume's walk: ns_per_record is the record parser's cost.
func BenchmarkSnapshotEach(b *testing.B) {
	vol := fsys.New(volume.FlavorNTFS, 4<<30)
	fsgen.PopulateLocal(vol, sim.NewRNG(3), fsgen.Config{User: "alice", Category: machine.Personal, Now: sim.Time(30 * sim.Day)})
	s := Take("m", `C:`, vol, sim.Time(30*sim.Day))
	var n int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Each(func(r *WalkRecord) { n += r.Depth }); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*s.Len()), "ns_per_record")
}
