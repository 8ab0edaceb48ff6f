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
	"fmt"
	"math"

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

// file creates one file, returning its volume-relative path.
func (g *gen) file(d dir, name string, size int64, backdate bool) string {
	return g.fileAttr(d, name, size, backdate, types.AttrNormal)
}

// fileAttr creates one file with explicit attributes; it returns "" when
// the name is taken or the volume is full.
func (g *gen) fileAttr(d dir, name string, size int64, backdate bool, attrs types.FileAttributes) string {
	n, st := g.fs.CreateIn(d.node, name, size, attrs, g.now)
	if st.IsError() {
		return ""
	}
	g.stamp(n, backdate)
	return d.path + `\` + name
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
		g.file(temp, fmt.Sprintf("~tmp%04x.tmp", rng.Intn(65536)), g.size(sizeTiny), false)
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
		p := g.file(system, fmt.Sprintf("sys%04d.dll", i), g.size(sizeDll), false)
		if p != "" {
			lay.Libraries = append(lay.Libraries, p)
		}
	}
	nExe := 250 + g.rng.Intn(150)
	for i := 0; i < nExe; i++ {
		p := g.file(system, fmt.Sprintf("app%03d.exe", i), g.size(sizeExe), false)
		if p != "" {
			lay.Executables = append(lay.Executables, p)
		}
	}
	for i := 0; i < 300+g.rng.Intn(200); i++ {
		g.file(system, fmt.Sprintf("drv%03d.sys", i), g.size(sizeMedium), false)
	}
	for i := 0; i < 120+g.rng.Intn(80); i++ {
		p := g.file(fonts, fmt.Sprintf("font%03d.ttf", i), g.size(sizeFont), false)
		if p != "" {
			lay.Fonts = append(lay.Fonts, p)
		}
	}
	for i := 0; i < 150+g.rng.Intn(150); i++ {
		g.file(help, fmt.Sprintf("topic%03d.hlp", i), g.size(sizeMedium), false)
	}
	for i := 0; i < 100+g.rng.Intn(100); i++ {
		g.file(inf, fmt.Sprintf("setup%03d.inf", i), g.size(sizeTiny), false)
	}
	for i := 0; i < 30+g.rng.Intn(30); i++ {
		g.file(media, fmt.Sprintf("snd%02d.wav", i), g.size(sizeMedium), false)
	}
	for i := 0; i < 40; i++ {
		g.file(winnt, fmt.Sprintf("cfg%02d.ini", i), g.size(sizeTiny), false)
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
		g.file(desktop, fmt.Sprintf("shortcut%02d.lnk", i), g.size(sizeTiny), false)
	}
	docTypes := []string{"doc", "xls", "txt", "ppt", "htm", "pdf"}
	nDocs := 120 + g.rng.Intn(500)
	for i := 0; i < nDocs; i++ {
		ext := docTypes[g.rng.Intn(len(docTypes))]
		p := g.file(docs, fmt.Sprintf("note%04d.%s", i, ext), g.size(sizeSmall), false)
		if p != "" {
			lay.Documents = append(lay.Documents, p)
		}
	}
	nMail := 2 + g.rng.Intn(8)
	for i := 0; i < nMail; i++ {
		p := g.file(mail, fmt.Sprintf("folder%02d.mbx", i), g.size(sizeMail), false)
		if p != "" {
			lay.MailFiles = append(lay.MailFiles, p)
		}
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
		cache[k] = g.sub(web, fmt.Sprintf("cache%d", k))
	}
	var bytes int64
	for i := 0; i < targetFiles; i++ {
		sz := g.size(sizeWeb)
		if bytes+sz > targetBytes && i > 1000 {
			break
		}
		bytes += sz
		ext := webTypes[g.rng.Intn(len(webTypes))]
		p := g.file(cache[i%4], fmt.Sprintf("ie%06d.%s", i, ext), sz, false)
		if p != "" {
			lay.WebFiles = append(lay.WebFiles, p)
		}
	}
}

// applicationPackages installs 8–16 packages with base-system dynamics.
func (g *gen) applicationPackages(lay *Layout) {
	nApps := 12 + g.rng.Intn(9)
	for a := 0; a < nApps; a++ {
		root := g.sub(g.root, fmt.Sprintf(`Program Files\app%02d`, a))
		nFiles := 250 + g.rng.Intn(1400)
		nDirs := 1 + nFiles/60
		dirs := make([]dir, nDirs)
		for i := range dirs {
			dirs[i] = g.sub(root, fmt.Sprintf("part%02d", i))
		}
		for i := 0; i < nFiles; i++ {
			d := dirs[g.rng.Intn(nDirs)]
			var p string
			switch r := g.rng.Float64(); {
			case r < 0.08:
				p = g.file(d, fmt.Sprintf("bin%03d.exe", i), g.size(sizeExe), true)
				if p != "" {
					lay.Executables = append(lay.Executables, p)
				}
			case r < 0.30:
				p = g.file(d, fmt.Sprintf("lib%03d.dll", i), g.size(sizeDll), true)
				if p != "" {
					lay.Libraries = append(lay.Libraries, p)
				}
			case r < 0.55:
				g.file(d, fmt.Sprintf("res%03d.dat", i), g.size(sizeMedium), true)
			case r < 0.75:
				g.file(d, fmt.Sprintf("doc%03d.hlp", i), g.size(sizeMedium), true)
			default:
				g.file(d, fmt.Sprintf("cfg%03d.ini", i), g.size(sizeTiny), true)
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
		mod := g.sub(src, fmt.Sprintf("mod%02d", m))
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
				p := g.fileAttr(mod, fmt.Sprintf("unit%03d.h", i), g.size(sizeSmall), false, attrs)
				if p != "" {
					lay.DevSources = append(lay.DevSources, p)
				}
			case 1, 2:
				p := g.fileAttr(mod, fmt.Sprintf("unit%03d.c", i), g.size(sizeSmall), false, attrs)
				if p != "" {
					lay.DevSources = append(lay.DevSources, p)
				}
			default:
				p := g.fileAttr(objDir, fmt.Sprintf("unit%03d.obj", i), g.size(sizeObj), false, attrs)
				if p != "" {
					lay.DevObjects = append(lay.DevObjects, p)
				}
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
		dirs[i] = g.sub(root, fmt.Sprintf(`d%02d\s%02d`, i/40, i%40))
	}
	for i := 0; i < nFiles; i++ {
		d := dirs[g.rng.Intn(nDirs)]
		switch g.rng.Intn(4) {
		case 0:
			g.file(d, fmt.Sprintf("sdk%05d.h", i), g.size(sizeSmall), true)
		case 1:
			g.file(d, fmt.Sprintf("sdk%05d.lib", i), g.size(sizeObj), true)
		case 2:
			g.file(d, fmt.Sprintf("sdk%05d.htm", i), g.size(sizeSmall), true)
		default:
			g.file(d, fmt.Sprintf("sdk%05d.exe", i), g.size(sizeExe), true)
		}
	}
}

// dataTree builds the scientific datasets (files "of an order of magnitude
// larger (100-300 Mbytes)", §6.1) read through memory-mapped views.
func (g *gen) dataTree(lay *Layout) {
	data := g.sub(g.root, "data")
	lay.DataDir = data.path
	for i := 0; i < 5+g.rng.Intn(12); i++ {
		p := g.file(data, fmt.Sprintf("run%02d.hdf", i), g.size(sizeData), false)
		if p != "" {
			lay.DataFiles = append(lay.DataFiles, p)
		}
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
				projDirs[i%20] = g.sub(proj, fmt.Sprintf("p%02d", i%20))
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
		p := g.file(d, fmt.Sprintf("%s%05d.%s", cfg.User[:min(3, len(cfg.User))], i, ext), size, false)
		if p != "" {
			lay.Documents = append(lay.Documents, p)
		}
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
