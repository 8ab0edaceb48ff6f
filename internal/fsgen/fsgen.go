// Package fsgen synthesises the initial file-system content of the traced
// machines (§5): local volumes with 24,000–45,000 files, 54%–87% full,
// size distributions dominated by executables, dynamic loadable libraries
// and fonts; a per-user profile tree under \winnt\profiles holding 87–99%
// of local user files including a WWW cache of 2,000–9,500 files totalling
// 5–45 MB; application packages whose dynamics match the base system; and
// developer packages (Platform-SDK-like: 14,000 files in 1,300
// directories) that shift the file-type census. Network user shares range
// from 150 to 27,000 files and 500 KB to 700 MB.
package fsgen

import (
	"math"
	"strconv"

	"repro/internal/dist"
	"repro/internal/ntos/fsys"
	"repro/internal/ntos/machine"
	"repro/internal/ntos/types"
	"repro/internal/sim"
)

// Layout records where the generator put things, so workload models can
// aim their activity at realistic targets.
type Layout struct {
	// User is the profile owner.
	User string
	// Profile is \winnt\profiles\<user>.
	Profile string
	// WebCache is the Temporary Internet Files directory.
	WebCache string
	// MailDir holds the .mbx files.
	MailDir string
	// DocsDir is the user's local documents directory.
	DocsDir string
	// TempDir is \temp.
	TempDir string
	// SystemDir is \winnt\system32.
	SystemDir string
	// DevDir is the development tree root ("" when absent).
	DevDir string
	// DataDir holds scientific datasets ("" when absent).
	DataDir string

	// Executables and Libraries are load targets for process starts.
	Executables []string
	Libraries   []string
	// Fonts are the large font files.
	Fonts []string
	// Documents are user-editable files.
	Documents []string
	// WebFiles are the current WWW-cache entries.
	WebFiles []string
	// MailFiles are the mailbox files.
	MailFiles []string
	// DevSources are source/header files; DevObjects the build outputs.
	DevSources []string
	DevObjects []string
	// DataFiles are the 100–300 MB scientific inputs.
	DataFiles []string
}

// sizes for the §5 census: small bodies with the heavy exe/dll/font tail
// that "dominates the distribution characteristics".
var (
	sizeTiny   = dist.NewLognormal(math.Log(600), 1.2)   // ini/lnk/cfg
	sizeSmall  = dist.NewLognormal(math.Log(4096), 1.6)  // docs, sources
	sizeMedium = dist.NewLognormal(math.Log(24576), 1.5) // bigger docs, help
	sizeWeb    = dist.NewLognormal(math.Log(3000), 1.4)  // cache entries
	sizeExe    = dist.NewBoundedPareto(49152, 24<<20, 0.9)
	sizeDll    = dist.NewBoundedPareto(24576, 12<<20, 0.9)
	sizeFont   = dist.NewBoundedPareto(40960, 8<<20, 0.8)
	sizeMail   = dist.NewBoundedPareto(65536, 60<<20, 1.1)
	sizeObj    = dist.NewLognormal(math.Log(16384), 1.3)
	sizeData   = dist.NewBoundedPareto(80<<20, 320<<20, 1.5) // scientific inputs
)

// gen tracks generation state for one volume.
type gen struct {
	fs *fsys.FS
	// root is the volume root as a dir, so that sub(root, "x") is \x.
	root dir
	rng  *sim.RNG
	now  sim.Time
	// ageSpan back-dates file times over the volume's life (§2: file
	// systems aged 2 months to 3 years).
	ageSpan sim.Duration
}

// stamp back-dates a node's times, injecting the §5 inconsistencies: 2–4%
// of files get a last-change newer than last-access, and installer files
// get creation times far older than the file system.
func (g *gen) stamp(n *fsys.Node, installerBackdate bool) {
	// Times before the study start are negative sim.Time values: the file
	// system predates the trace period (§2: ages 2 months to 3 years).
	age := sim.Duration(g.rng.Int63n(int64(g.ageSpan) + 1))
	created := g.now - sim.Time(age)
	modified := created.Add(sim.Duration(g.rng.Int63n(int64(age) + 1)))
	if modified > g.now {
		modified = g.now
	}
	accessed := modified.Add(sim.Duration(g.rng.Int63n(int64(g.now-modified) + 1)))
	if g.rng.Bool(0.03) {
		// The observed 2–4% "last change more recent than last access".
		modified, accessed = accessed, modified
	}
	if installerBackdate && g.rng.Bool(0.7) {
		// "Installation programs frequently change the file creation time
		// ... resulting in files that have creation times of years ago on
		// file systems that are only days or weeks old."
		created = created - sim.Time(sim.Day*365) - sim.Time(g.rng.Int63n(int64(sim.Day*730)))
	}
	n.Created = created
	n.LastModified = modified
	n.LastAccessed = accessed
}

// dir is a directory the generator made: its volume-relative path, as the
// Layout records it, and its node, under which files are created without
// walking the path from the root again.
type dir struct {
	path string
	node *fsys.Node
}

// file creates one file; it leaves the volume as it was when the name is
// taken or the volume is full.
func (g *gen) file(d dir, name string, size int64, backdate bool) {
	g.fileAttr(nil, d, name, size, backdate, types.AttrNormal)
}

// keep creates one file as file does and, when it was made, appends its
// volume-relative path to list: only the files a Layout keeps pay for a
// path string.
func (g *gen) keep(list *[]string, d dir, name string, size int64, backdate bool) {
	g.fileAttr(list, d, name, size, backdate, types.AttrNormal)
}

// fileAttr creates one file with explicit attributes and, when list is
// set and the file was made, appends its path to list.
func (g *gen) fileAttr(list *[]string, d dir, name string, size int64, backdate bool, attrs types.FileAttributes) {
	n, st := g.fs.CreateIn(d.node, name, size, attrs, g.now)
	if st.IsError() {
		return
	}
	g.stamp(n, backdate)
	if list != nil {
		*list = append(*list, d.path+`\`+name)
	}
}

// numbered returns prefix, then i zero-padded to width decimal digits,
// then "." and ext when ext is set: fmt.Sprintf(prefix+"%0<width>d."+ext,
// i) for i >= 0, built in a stack buffer instead of through a format.
func numbered(prefix string, i, width int, ext string) string {
	var buf [64]byte
	b := appendNum(append(buf[:0], prefix...), i, width, 10)
	if ext != "" {
		b = append(append(b, '.'), ext...)
	}
	return string(b)
}

// tmpName is fmt.Sprintf("~tmp%04x.tmp", v) for v >= 0.
func tmpName(v int) string {
	var buf [16]byte
	return string(append(appendNum(append(buf[:0], "~tmp"...), v, 4, 16), ".tmp"...))
}

// sdkDir is fmt.Sprintf(`d%02d\s%02d`, i/40, i%40) for i >= 0: the
// Platform SDK's two-level directory i.
func sdkDir(i int) string {
	var buf [16]byte
	b := appendNum(append(buf[:0], 'd'), i/40, 2, 10)
	return string(appendNum(append(b, `\s`...), i%40, 2, 10))
}

// appendNum appends v >= 0 in base 10 or 16 (lower-case digits),
// zero-padded to width digits, as the verbs %0<width>d and %0<width>x do.
func appendNum(b []byte, v, width, base int) []byte {
	var digits [20]byte
	d := strconv.AppendUint(digits[:0], uint64(v), base)
	for n := len(d); n < width; n++ {
		b = append(b, '0')
	}
	return append(b, d...)
}

// sub ensures the directory at the relative path rel (one or more
// components) exists under d, and returns it.
func (g *gen) sub(d dir, rel string) dir {
	n, _ := g.fs.MkdirAllIn(d.node, rel, g.now)
	return dir{d.path + `\` + rel, n}
}

// sample draws a size.
func (g *gen) size(s dist.Sampler) int64 {
	v := int64(s.Sample(g.rng))
	if v < 16 {
		v = 16
	}
	return v
}

// Config parameterises local-volume generation.
type Config struct {
	User     string
	Category machine.Category
	Now      sim.Time
	// AgeSpan is how far back file times reach (default ~1.2 years, the
	// paper's average file-system age).
	AgeSpan sim.Duration
}

// PopulateLocal fills fs with a §5-faithful local system volume and
// returns the layout. It also sets fs.CapacityBytes so fullness lands in
// the measured 54%–87% band.
func PopulateLocal(fs *fsys.FS, rng *sim.RNG, cfg Config) *Layout {
	if cfg.AgeSpan <= 0 {
		cfg.AgeSpan = sim.Duration(1.2 * 365 * float64(sim.Day))
	}
	if cfg.User == "" {
		cfg.User = "user"
	}
	g := &gen{fs: fs, root: dir{node: fs.Root}, rng: rng, now: cfg.Now, ageSpan: cfg.AgeSpan}
	lay := &Layout{User: cfg.User}

	g.systemTree(lay)
	g.profileTree(lay, cfg.User)
	g.applicationPackages(lay)
	temp := g.sub(g.root, "temp")
	lay.TempDir = temp.path
	for i := 0; i < 3+rng.Intn(8); i++ {
		g.file(temp, tmpName(rng.Intn(65536)), g.size(sizeTiny), false)
	}

	switch cfg.Category {
	case machine.Pool:
		g.devTree(lay, 1500+rng.Intn(6000))
		if rng.Bool(0.4) {
			g.platformSDK(lay)
		}
	case machine.Scientific:
		g.devTree(lay, 800+rng.Intn(2500))
		g.dataTree(lay)
	case machine.WalkUp:
		if rng.Bool(0.3) {
			g.devTree(lay, 500+rng.Intn(2000))
		}
	}

	// Capacity so fullness ∈ [54%, 87%] (§5).
	full := 0.54 + rng.Float64()*0.33
	fs.CapacityBytes = int64(float64(fs.UsedBytes) / full)
	return lay
}

// systemTree builds \winnt with system32, fonts and support files.
func (g *gen) systemTree(lay *Layout) {
	winnt := g.sub(g.root, "winnt")
	system := g.sub(winnt, "system32")
	lay.SystemDir = system.path
	help := g.sub(winnt, "help")
	inf := g.sub(winnt, "inf")
	media := g.sub(winnt, "media")
	fonts := g.sub(winnt, "fonts")

	// system32: the dll/exe census the size distribution hangs off.
	nDll := 1300 + g.rng.Intn(700)
	for i := 0; i < nDll; i++ {
		g.keep(&lay.Libraries, system, numbered("sys", i, 4, "dll"), g.size(sizeDll), false)
	}
	nExe := 250 + g.rng.Intn(150)
	for i := 0; i < nExe; i++ {
		g.keep(&lay.Executables, system, numbered("app", i, 3, "exe"), g.size(sizeExe), false)
	}
	for i := 0; i < 300+g.rng.Intn(200); i++ {
		g.file(system, numbered("drv", i, 3, "sys"), g.size(sizeMedium), false)
	}
	for i := 0; i < 120+g.rng.Intn(80); i++ {
		g.keep(&lay.Fonts, fonts, numbered("font", i, 3, "ttf"), g.size(sizeFont), false)
	}
	for i := 0; i < 150+g.rng.Intn(150); i++ {
		g.file(help, numbered("topic", i, 3, "hlp"), g.size(sizeMedium), false)
	}
	for i := 0; i < 100+g.rng.Intn(100); i++ {
		g.file(inf, numbered("setup", i, 3, "inf"), g.size(sizeTiny), false)
	}
	for i := 0; i < 30+g.rng.Intn(30); i++ {
		g.file(media, numbered("snd", i, 2, "wav"), g.size(sizeMedium), false)
	}
	for i := 0; i < 40; i++ {
		g.file(winnt, numbered("cfg", i, 2, "ini"), g.size(sizeTiny), false)
	}
}

// profileTree builds \winnt\profiles\<user> — where 87%–99% of local user
// files live (§5).
func (g *gen) profileTree(lay *Layout, user string) {
	profile := g.sub(g.root, `winnt\profiles\`+user)
	lay.Profile = profile.path
	desktop := g.sub(profile, "Desktop")
	docs := g.sub(profile, "Personal")
	lay.DocsDir = docs.path
	appdata := g.sub(profile, "Application Data")
	mail := g.sub(appdata, "mail")
	lay.MailDir = mail.path
	web := g.sub(profile, "Temporary Internet Files")
	lay.WebCache = web.path

	for i := 0; i < 10+g.rng.Intn(20); i++ {
		g.file(desktop, numbered("shortcut", i, 2, "lnk"), g.size(sizeTiny), false)
	}
	docTypes := []string{"doc", "xls", "txt", "ppt", "htm", "pdf"}
	nDocs := 120 + g.rng.Intn(500)
	for i := 0; i < nDocs; i++ {
		ext := docTypes[g.rng.Intn(len(docTypes))]
		g.keep(&lay.Documents, docs, numbered("note", i, 4, ext), g.size(sizeSmall), false)
	}
	nMail := 2 + g.rng.Intn(8)
	for i := 0; i < nMail; i++ {
		g.keep(&lay.MailFiles, mail, numbered("folder", i, 2, "mbx"), g.size(sizeMail), false)
	}

	// WWW cache: 2,000–9,500 files, 5–45 MB total (§5). Draw sizes until
	// the byte target is met or the count cap reached.
	targetFiles := 2000 + g.rng.Intn(7500)
	targetBytes := int64(5<<20) + g.rng.Int63n(40<<20)
	webTypes := []string{"gif", "jpg", "htm", "html", "js", "css"}
	// The loop below cannot stop before i > 1000, so making the four
	// subdirectories up front makes the ones first use would make.
	var cache [4]dir
	for k := range cache {
		cache[k] = g.sub(web, numbered("cache", k, 0, ""))
	}
	var bytes int64
	for i := 0; i < targetFiles; i++ {
		sz := g.size(sizeWeb)
		if bytes+sz > targetBytes && i > 1000 {
			break
		}
		bytes += sz
		ext := webTypes[g.rng.Intn(len(webTypes))]
		g.keep(&lay.WebFiles, cache[i%4], numbered("ie", i, 6, ext), sz, false)
	}
}

// applicationPackages installs 8–16 packages with base-system dynamics.
func (g *gen) applicationPackages(lay *Layout) {
	nApps := 12 + g.rng.Intn(9)
	for a := 0; a < nApps; a++ {
		root := g.sub(g.root, numbered(`Program Files\app`, a, 2, ""))
		nFiles := 250 + g.rng.Intn(1400)
		nDirs := 1 + nFiles/60
		dirs := make([]dir, nDirs)
		for i := range dirs {
			dirs[i] = g.sub(root, numbered("part", i, 2, ""))
		}
		for i := 0; i < nFiles; i++ {
			d := dirs[g.rng.Intn(nDirs)]
			switch r := g.rng.Float64(); {
			case r < 0.08:
				g.keep(&lay.Executables, d, numbered("bin", i, 3, "exe"), g.size(sizeExe), true)
			case r < 0.30:
				g.keep(&lay.Libraries, d, numbered("lib", i, 3, "dll"), g.size(sizeDll), true)
			case r < 0.55:
				g.file(d, numbered("res", i, 3, "dat"), g.size(sizeMedium), true)
			case r < 0.75:
				g.file(d, numbered("doc", i, 3, "hlp"), g.size(sizeMedium), true)
			default:
				g.file(d, numbered("cfg", i, 3, "ini"), g.size(sizeTiny), true)
			}
		}
	}
}

// devTree builds a development tree of roughly n files.
func (g *gen) devTree(lay *Layout, n int) {
	src := g.sub(g.root, "src")
	lay.DevDir = src.path
	nMods := 1 + n/120
	for m := 0; m < nMods; m++ {
		mod := g.sub(src, numbered("mod", m, 2, ""))
		objDir := g.sub(mod, "obj")
		per := n / nMods
		// NTFS compression is commonly enabled on development trees; the
		// paper's follow-up traces examined reads from compressed files.
		compressed := g.rng.Bool(0.3)
		attrs := types.AttrNormal
		if compressed {
			attrs = types.AttrCompressed
		}
		for i := 0; i < per; i++ {
			switch g.rng.Intn(5) {
			case 0:
				g.fileAttr(&lay.DevSources, mod, numbered("unit", i, 3, "h"), g.size(sizeSmall), false, attrs)
			case 1, 2:
				g.fileAttr(&lay.DevSources, mod, numbered("unit", i, 3, "c"), g.size(sizeSmall), false, attrs)
			default:
				g.fileAttr(&lay.DevObjects, objDir, numbered("unit", i, 3, "obj"), g.size(sizeObj), false, attrs)
			}
		}
	}
}

// platformSDK models the Microsoft Platform SDK: 14,000 files in 1,300
// directories (§5).
func (g *gen) platformSDK(lay *Layout) {
	root := g.sub(g.root, `Program Files\PlatformSDK`)
	const nDirs, nFiles = 1300, 14000
	dirs := make([]dir, nDirs)
	for i := range dirs {
		dirs[i] = g.sub(root, sdkDir(i))
	}
	for i := 0; i < nFiles; i++ {
		d := dirs[g.rng.Intn(nDirs)]
		switch g.rng.Intn(4) {
		case 0:
			g.file(d, numbered("sdk", i, 5, "h"), g.size(sizeSmall), true)
		case 1:
			g.file(d, numbered("sdk", i, 5, "lib"), g.size(sizeObj), true)
		case 2:
			g.file(d, numbered("sdk", i, 5, "htm"), g.size(sizeSmall), true)
		default:
			g.file(d, numbered("sdk", i, 5, "exe"), g.size(sizeExe), true)
		}
	}
}

// dataTree builds the scientific datasets (files "of an order of magnitude
// larger (100-300 Mbytes)", §6.1) read through memory-mapped views.
func (g *gen) dataTree(lay *Layout) {
	data := g.sub(g.root, "data")
	lay.DataDir = data.path
	for i := 0; i < 5+g.rng.Intn(12); i++ {
		g.keep(&lay.DataFiles, data, numbered("run", i, 2, "hdf"), g.size(sizeData), false)
	}
}

// ShareConfig parameterises a network user share.
type ShareConfig struct {
	User string
	Now  sim.Time
	// Scale in [0,1] interpolates between the smallest (150 files,
	// 500 KB) and largest (27,000 files, 700 MB) observed shares; a
	// negative value draws it at random.
	Scale float64
}

// PopulateShare fills fs with one user's network home directory. Shares
// had "no uniformity in size or content" (§5).
func PopulateShare(fs *fsys.FS, rng *sim.RNG, cfg ShareConfig) *Layout {
	g := &gen{fs: fs, root: dir{node: fs.Root}, rng: rng, now: cfg.Now, ageSpan: sim.Duration(2 * 365 * float64(sim.Day))}
	scale := cfg.Scale
	if scale < 0 {
		// Heavy-tailed share sizes.
		scale = math.Min(1, dist.NewBoundedPareto(0.01, 1.0, 0.7).Sample(rng))
	}
	nFiles := 150 + int(scale*26850)
	lay := &Layout{User: cfg.User}
	home := g.sub(g.root, cfg.User)
	lay.DocsDir = home.path
	archive := g.sub(home, "archive")
	proj := g.sub(home, "projects")
	// Each project directory is made when its first file is drawn, so one
	// that draws none does not exist.
	var projDirs [20]dir
	docTypes := []string{"doc", "xls", "txt", "ppt", "zip", "mdb", "csv"}
	for i := 0; i < nFiles; i++ {
		d := home
		switch g.rng.Intn(3) {
		case 1:
			d = archive
		case 2:
			if projDirs[i%20].node == nil {
				projDirs[i%20] = g.sub(proj, numbered("p", i%20, 2, ""))
			}
			d = projDirs[i%20]
		}
		ext := docTypes[g.rng.Intn(len(docTypes))]
		var size int64
		if ext == "zip" || ext == "mdb" {
			size = g.size(sizeMail) // archives/dev databases dominate share tails (§5)
		} else {
			size = g.size(sizeSmall)
		}
		g.keep(&lay.Documents, d, numbered(cfg.User[:min(3, len(cfg.User))], i, 5, ext), size, false)
	}
	fs.CapacityBytes = fs.UsedBytes * 3
	return lay
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
