package fsgen

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/ntos/fsys"
	"repro/internal/ntos/machine"
	"repro/internal/ntos/volume"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

func genLocal(t *testing.T, seed uint64, cat machine.Category) (*fsys.FS, *Layout) {
	t.Helper()
	fs := fsys.New(volume.FlavorNTFS, 4<<30)
	rng := sim.NewRNG(seed)
	lay := PopulateLocal(fs, rng, Config{User: "alice", Category: cat, Now: sim.Time(30 * sim.Day)})
	return fs, lay
}

func TestLocalFileCountInBand(t *testing.T) {
	// §5: local file systems have 24,000–45,000 files. Allow modest
	// slack for seed variance across categories.
	for seed := uint64(1); seed <= 5; seed++ {
		for _, cat := range []machine.Category{machine.Personal, machine.Pool, machine.Scientific} {
			fs, _ := genLocal(t, seed, cat)
			if fs.FileCount < 8000 || fs.FileCount > 60000 {
				t.Errorf("seed %d cat %v: %d files, outside plausible band", seed, cat, fs.FileCount)
			}
		}
	}
}

func TestFullnessBand(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		fs, _ := genLocal(t, seed, machine.Personal)
		f := fs.FullnessFraction()
		if f < 0.50 || f > 0.90 {
			t.Errorf("seed %d: fullness %.2f outside [0.54, 0.87] band", seed, f)
		}
	}
}

func TestWebCacheBand(t *testing.T) {
	// §5: WWW cache 2,000–9,500 files and 5–45 MB.
	fs, lay := genLocal(t, 3, machine.Personal)
	if len(lay.WebFiles) < 1000 || len(lay.WebFiles) > 9500 {
		t.Errorf("web cache files = %d", len(lay.WebFiles))
	}
	var bytes int64
	node, st := fs.Lookup(lay.WebCache)
	if st.IsError() {
		t.Fatalf("web cache dir missing: %v", st)
	}
	var count int
	fs.Walk(func(n *fsys.Node) bool {
		if strings.HasPrefix(n.Path(), lay.WebCache) && !n.IsDir() {
			bytes += n.Size
			count++
		}
		return true
	})
	_ = node
	if bytes < 4<<20 || bytes > 50<<20 {
		t.Errorf("web cache bytes = %d MB", bytes>>20)
	}
	if count != len(lay.WebFiles) {
		t.Errorf("layout lists %d web files, tree has %d", len(lay.WebFiles), count)
	}
}

func TestProfileHoldsMostUserFiles(t *testing.T) {
	// §5: 87%–99% of locally stored user files live in the profile tree.
	// User files = docs + web cache + mail (not system/apps/dev).
	_, lay := genLocal(t, 4, machine.Personal)
	inProfile := 0
	total := 0
	for _, set := range [][]string{lay.Documents, lay.WebFiles, lay.MailFiles} {
		for _, p := range set {
			total++
			if strings.HasPrefix(p, lay.Profile) {
				inProfile++
			}
		}
	}
	if total == 0 {
		t.Fatal("no user files generated")
	}
	frac := float64(inProfile) / float64(total)
	if frac < 0.87 {
		t.Errorf("profile fraction = %.2f, want >= 0.87", frac)
	}
}

func TestSizeDistributionDominatedByImages(t *testing.T) {
	// §5: executables, DLLs and fonts dominate the file-size tail.
	fs, _ := genLocal(t, 5, machine.Personal)
	type fileInfo struct {
		size int64
		ext  string
	}
	var files []fileInfo
	fs.Walk(func(n *fsys.Node) bool {
		if !n.IsDir() {
			files = append(files, fileInfo{n.Size, n.Ext()})
		}
		return true
	})
	sort.Slice(files, func(i, j int) bool { return files[i].size > files[j].size })
	top := files[:len(files)/100] // top 1% by size
	img := 0
	for _, f := range top {
		switch f.ext {
		case "exe", "dll", "ttf", "fon", "mbx":
			img++
		}
	}
	if frac := float64(img) / float64(len(top)); frac < 0.5 {
		t.Errorf("images+fonts are only %.2f of the top-1%% sizes", frac)
	}
}

func TestScientificDataFiles(t *testing.T) {
	_, lay := genLocal(t, 6, machine.Scientific)
	if len(lay.DataFiles) == 0 {
		t.Fatal("no data files on a scientific machine")
	}
	fs, _ := genLocal(t, 6, machine.Scientific)
	_ = fs
	for _, p := range lay.DataFiles {
		if !strings.HasPrefix(p, `\data\`) {
			t.Errorf("data file %q outside \\data", p)
		}
	}
}

func TestDevTreeOnPoolMachines(t *testing.T) {
	_, lay := genLocal(t, 7, machine.Pool)
	if lay.DevDir == "" || len(lay.DevSources) == 0 || len(lay.DevObjects) == 0 {
		t.Errorf("pool machine missing dev tree: dir=%q src=%d obj=%d",
			lay.DevDir, len(lay.DevSources), len(lay.DevObjects))
	}
}

func TestLayoutPathsResolve(t *testing.T) {
	fs, lay := genLocal(t, 8, machine.Pool)
	check := func(name string, paths []string) {
		for _, p := range paths {
			if _, st := fs.Lookup(p); st.IsError() {
				t.Errorf("%s path %q does not resolve: %v", name, p, st)
				return
			}
		}
	}
	check("exe", lay.Executables)
	check("dll", lay.Libraries)
	check("font", lay.Fonts)
	check("doc", lay.Documents)
	check("web", lay.WebFiles)
	check("mail", lay.MailFiles)
	check("src", lay.DevSources)
	for _, d := range []string{lay.Profile, lay.WebCache, lay.MailDir, lay.DocsDir, lay.TempDir, lay.SystemDir} {
		n, st := fs.Lookup(d)
		if st.IsError() || !n.IsDir() {
			t.Errorf("layout dir %q invalid: %v", d, st)
		}
	}
}

func TestTimestampInconsistencies(t *testing.T) {
	// §5: 2–4% of files have last-change newer than last-access, and
	// installers back-date creation times.
	fs, _ := genLocal(t, 9, machine.Personal)
	total, inconsistent, backdated := 0, 0, 0
	now := sim.Time(30 * sim.Day)
	fs.Walk(func(n *fsys.Node) bool {
		if n.IsDir() {
			return true
		}
		total++
		if n.LastModified > n.LastAccessed {
			inconsistent++
		}
		if n.Created < now-sim.Time(300*sim.Day) {
			backdated++
		}
		return true
	})
	frac := float64(inconsistent) / float64(total)
	if frac < 0.01 || frac > 0.08 {
		t.Errorf("inconsistent-time fraction = %.3f, want ~0.02-0.04", frac)
	}
	if backdated == 0 {
		t.Error("no installer-backdated creation times")
	}
}

func TestDeterminism(t *testing.T) {
	fs1, lay1 := genLocal(t, 10, machine.Personal)
	fs2, lay2 := genLocal(t, 10, machine.Personal)
	if fs1.FileCount != fs2.FileCount || fs1.UsedBytes != fs2.UsedBytes {
		t.Errorf("same seed produced different systems: %d/%d files, %d/%d bytes",
			fs1.FileCount, fs2.FileCount, fs1.UsedBytes, fs2.UsedBytes)
	}
	if len(lay1.WebFiles) != len(lay2.WebFiles) {
		t.Error("web cache differs across same-seed runs")
	}
}

func TestShareScaleBands(t *testing.T) {
	// §5: shares from 150 files / 500 KB to 27,000 files / 700 MB.
	small := fsys.New(volume.FlavorCIFS, 1<<40)
	PopulateShare(small, sim.NewRNG(11), ShareConfig{User: "bob", Scale: 0})
	if small.FileCount < 150 || small.FileCount > 400 {
		t.Errorf("scale-0 share has %d files", small.FileCount)
	}
	big := fsys.New(volume.FlavorCIFS, 1<<40)
	PopulateShare(big, sim.NewRNG(12), ShareConfig{User: "carol", Scale: 1})
	if big.FileCount < 20000 {
		t.Errorf("scale-1 share has %d files", big.FileCount)
	}
	random := fsys.New(volume.FlavorCIFS, 1<<40)
	lay := PopulateShare(random, sim.NewRNG(13), ShareConfig{User: "dave", Scale: -1})
	if len(lay.Documents) == 0 {
		t.Error("random share empty")
	}
}

// generatorDigests pins the generator's output: per case, the SHA-256 of
// the volume's snapshot (snapshot.Take, encoded by Write) followed by its
// Layout as JSON. A change to the RNG draws, to the directories made or
// to the Layout's path strings moves a digest. The 150-file shares at
// seeds 2 and 3 leave a projects\pNN directory without files, which must
// then not exist.
var generatorDigests = map[string]string{
	"walk-up/NTFS/1":        "2f4b63bcd06394c561b5ed887951c6f30d734761cbca82f4657506fc5916e53c",
	"walk-up/NTFS/2":        "b3cc5c556ac7359769995437de72c55aa43d0f0b6554d1a228ac006bafc23982",
	"walk-up/NTFS/3":        "e9f708951b88acee6547d9d7ca53e79017dba7b2bd35f81ac8cace7c1dcaccef",
	"walk-up/FAT/1":         "9f8510ba324130997042a18beddefc36197431745af0b85dceee114008e9aa34",
	"walk-up/FAT/2":         "c0fc803e4b9723d9b310e5126b3a9e4411294f5ea0b40d84b8c19e298c4214e9",
	"walk-up/FAT/3":         "a43644abaa1bbdf5be46a934ca1a5e94b2159846b3be30f31abcc8feff42fe87",
	"pool/NTFS/1":           "2922123a0ded92b500ebf674d752f0c25376a6118544fdcf2ed99dae25c54b7a",
	"pool/NTFS/2":           "08271f74a792d31343ed85a84aa69ea6d412ff621d1371ff482d141d6ede38a7",
	"pool/NTFS/3":           "db7ec8f8d07e42c2726a6245f64c7f2c763d94c12d5e7749848c64705023d2f4",
	"pool/FAT/1":            "c3186a41bb5843301cde5a721734a00500c61162997ccc1112dca78448989a05",
	"pool/FAT/2":            "5b6fb443e3b67e2a2cbc4ceedb869580e092aa228a7d46865aba29e3de65692b",
	"pool/FAT/3":            "8139b66c10c3d75cf0d5e7b8a39ab4a3048cdc7d1acc4869a09223eee7517750",
	"personal/NTFS/1":       "2f4b63bcd06394c561b5ed887951c6f30d734761cbca82f4657506fc5916e53c",
	"personal/NTFS/2":       "b3cc5c556ac7359769995437de72c55aa43d0f0b6554d1a228ac006bafc23982",
	"personal/NTFS/3":       "5804a821a18b7357494db77c71844c38dae0f56d32782872b01ccbc427fe7cc6",
	"personal/FAT/1":        "9f8510ba324130997042a18beddefc36197431745af0b85dceee114008e9aa34",
	"personal/FAT/2":        "c0fc803e4b9723d9b310e5126b3a9e4411294f5ea0b40d84b8c19e298c4214e9",
	"personal/FAT/3":        "90452ffbb6ee68ae56aa28f22e4b4df7792f7bff95e3feb89983ff31fe68e666",
	"administrative/NTFS/1": "2f4b63bcd06394c561b5ed887951c6f30d734761cbca82f4657506fc5916e53c",
	"administrative/NTFS/2": "b3cc5c556ac7359769995437de72c55aa43d0f0b6554d1a228ac006bafc23982",
	"administrative/NTFS/3": "5804a821a18b7357494db77c71844c38dae0f56d32782872b01ccbc427fe7cc6",
	"administrative/FAT/1":  "9f8510ba324130997042a18beddefc36197431745af0b85dceee114008e9aa34",
	"administrative/FAT/2":  "c0fc803e4b9723d9b310e5126b3a9e4411294f5ea0b40d84b8c19e298c4214e9",
	"administrative/FAT/3":  "90452ffbb6ee68ae56aa28f22e4b4df7792f7bff95e3feb89983ff31fe68e666",
	"scientific/NTFS/1":     "d1546b1ff3a3628a244f37c7a2961316fef4a6c57e5413f817aab660db47745c",
	"scientific/NTFS/2":     "fa594feadf92262c5f772b997976a79dbfc66bafe91f1d91582128b118f7225a",
	"scientific/NTFS/3":     "0d166c8fe911afac0178b94e90e57d334926ce05dceb959585f1ad176fb54a9e",
	"scientific/FAT/1":      "ac8ca50835e1f167fd1499876b42916313b69a54cfd282dbd50649d5d73c8d57",
	"scientific/FAT/2":      "1a0646ebc299b8c78c3e747f4a654e2c7045a14c2064b0a1d4be8d568ad3df2a",
	"scientific/FAT/3":      "2633783e8827530db5886302c387f8eee007a8dad95074e8150d72915c5af41d",
	"share/1":               "64182fc61fbdd04d7d5b4af88790466c30458a4ba551853b2327bec00a7f0620",
	"share/2":               "6ae656e67ff91e0fc1f57d5f55380ecb22bef880f3956cc02a39aced8f7450dd",
	"share/3":               "ca4301e51a3de717fa296e049a7ae5b3c49c34e2e5ff29ea24f720153d0ddfdb",
	"share-150/1":           "ff676d4a731f71a7fc46dec180b599103274c1a25d3b5a07df34a6d9b9736ff0",
	"share-150/2":           "524dacc749116b06a1aed305f3e471700a14d73a5a5c3fec0db2712e53356976",
	"share-150/3":           "0048767b908487906a00a340942fc8a07030c7f8c2a9dbf5cebc038506250493",
}

// genNow is the digest cases' study start: late enough that NTFS and FAT
// directory times differ.
const genNow = sim.Time(30 * sim.Day)

func TestGeneratorDigests(t *testing.T) {
	type genCase struct {
		name string
		gen  func(rng *sim.RNG) (*fsys.FS, *Layout)
	}
	var cases []genCase
	for _, cat := range []machine.Category{machine.WalkUp, machine.Pool, machine.Personal, machine.Administrative, machine.Scientific} {
		// The study's disk geometry for the category.
		geo := volume.IDE1998
		if cat == machine.Scientific {
			geo = volume.SCSI1998
		}
		for _, flavor := range []volume.Flavor{volume.FlavorNTFS, volume.FlavorFAT} {
			cases = append(cases, genCase{cat.String() + "/" + flavor.String(), func(rng *sim.RNG) (*fsys.FS, *Layout) {
				fs := fsys.New(flavor, geo.CapacityBytes)
				return fs, PopulateLocal(fs, rng, Config{User: "alice", Category: cat, Now: genNow})
			}})
		}
	}
	for _, sc := range []struct {
		name  string
		scale float64
	}{{"share", -1}, {"share-150", 0}} {
		cases = append(cases, genCase{sc.name, func(rng *sim.RNG) (*fsys.FS, *Layout) {
			fs := fsys.New(volume.FlavorCIFS, volume.Redirector100Mb.CapacityBytes)
			return fs, PopulateShare(fs, rng, ShareConfig{User: "bob", Now: genNow, Scale: sc.scale})
		}})
	}
	for _, c := range cases {
		for seed := uint64(1); seed <= 3; seed++ {
			key := fmt.Sprintf("%s/%d", c.name, seed)
			fs, lay := c.gen(sim.NewRNG(seed))
			h := sha256.New()
			if err := snapshot.Take("m", "C:", fs, genNow).Write(h); err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			js, err := json.Marshal(lay)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			h.Write(js)
			if got, want := hex.EncodeToString(h.Sum(nil)), generatorDigests[key]; got != want {
				t.Errorf("%s: digest %s, want %s", key, got, want)
			}
		}
	}
}

// TestNamesMatchSprintf pins the name helpers to the formats the
// generator used to build names with: every numbered call site's format,
// for i from 0 to past 10^width, where the padding stops, and the two
// names with their own helper.
func TestNamesMatchSprintf(t *testing.T) {
	for _, c := range []struct {
		format, prefix string
		width          int
		exts           []string
	}{
		{"sys%04d.dll", "sys", 4, nil}, {"app%03d.exe", "app", 3, nil},
		{"drv%03d.sys", "drv", 3, nil}, {"font%03d.ttf", "font", 3, nil},
		{"topic%03d.hlp", "topic", 3, nil}, {"setup%03d.inf", "setup", 3, nil},
		{"snd%02d.wav", "snd", 2, nil}, {"cfg%02d.ini", "cfg", 2, nil},
		{"shortcut%02d.lnk", "shortcut", 2, nil},
		{"note%04d.%s", "note", 4, []string{"doc", "xls", "txt", "ppt", "htm", "pdf"}},
		{"folder%02d.mbx", "folder", 2, nil}, {"cache%d", "cache", 0, nil},
		{"ie%06d.%s", "ie", 6, []string{"gif", "jpg", "htm", "html", "js", "css"}},
		{`Program Files\app%02d`, `Program Files\app`, 2, nil}, {"part%02d", "part", 2, nil},
		{"bin%03d.exe", "bin", 3, nil}, {"lib%03d.dll", "lib", 3, nil},
		{"res%03d.dat", "res", 3, nil}, {"doc%03d.hlp", "doc", 3, nil}, {"cfg%03d.ini", "cfg", 3, nil},
		{"mod%02d", "mod", 2, nil}, {"unit%03d.h", "unit", 3, nil},
		{"unit%03d.c", "unit", 3, nil}, {"unit%03d.obj", "unit", 3, nil},
		{"sdk%05d.h", "sdk", 5, nil}, {"sdk%05d.lib", "sdk", 5, nil},
		{"sdk%05d.htm", "sdk", 5, nil}, {"sdk%05d.exe", "sdk", 5, nil},
		{"run%02d.hdf", "run", 2, nil}, {"p%02d", "p", 2, nil},
		{"ali%05d.%s", "ali", 5, []string{"doc", "xls", "txt", "ppt", "zip", "mdb", "csv"}},
	} {
		exts := c.exts
		if exts == nil {
			// A fixed extension is part of the format; numbered takes it
			// without the dot.
			ext := ""
			if i := strings.LastIndexByte(c.format, '.'); i >= 0 {
				ext = c.format[i+1:]
			}
			exts = []string{ext}
		}
		limit := 1
		for w := 0; w < c.width; w++ {
			limit *= 10
		}
		limit += 100
		for i := 0; i <= limit; i++ {
			// A list of extensions is taken in turn, so each meets every
			// digit count.
			ext := exts[i%len(exts)]
			var want string
			if c.exts != nil {
				want = fmt.Sprintf(c.format, i, ext)
			} else {
				want = fmt.Sprintf(c.format, i)
			}
			if got := numbered(c.prefix, i, c.width, ext); got != want {
				t.Fatalf("numbered(%q, %d, %d, %q) = %q, want %q", c.prefix, i, c.width, ext, got, want)
			}
		}
	}
	for v := 0; v <= 0x12000; v++ {
		if got, want := tmpName(v), fmt.Sprintf("~tmp%04x.tmp", v); got != want {
			t.Fatalf("tmpName(%d) = %q, want %q", v, got, want)
		}
	}
	for i := 0; i <= 100*40+40; i++ {
		if got, want := sdkDir(i), fmt.Sprintf(`d%02d\s%02d`, i/40, i%40); got != want {
			t.Fatalf("sdkDir(%d) = %q, want %q", i, got, want)
		}
	}
}
