package analysis

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/fsgen"
	"repro/internal/ntos/fsys"
	"repro/internal/ntos/machine"
	"repro/internal/ntos/types"
	"repro/internal/ntos/volume"
	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/stats"
)

func genSnapshot(t *testing.T) *snapshot.Snapshot {
	t.Helper()
	fs := fsys.New(volume.FlavorNTFS, 8<<30)
	rng := sim.NewRNG(21)
	fsgen.PopulateLocal(fs, rng, fsgen.Config{
		User: "alice", Category: machine.Personal, Now: sim.Time(60 * sim.Day),
	})
	return snapshot.Take("m1", `C:`, fs, sim.Time(60*sim.Day))
}

// census is Census for a snapshot whose records are valid.
func census(t *testing.T, s *snapshot.Snapshot) ContentCensus {
	t.Helper()
	c, err := Census(s)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCensusBasics(t *testing.T) {
	s := genSnapshot(t)
	c := census(t, s)
	if c.Files < 5000 {
		t.Fatalf("census files = %d", c.Files)
	}
	if c.Dirs == 0 || c.Bytes == 0 {
		t.Errorf("census: %+v", c)
	}
	if c.MaxDepth < 3 {
		t.Errorf("max depth = %d", c.MaxDepth)
	}
	// §5: size tail heavy; time inconsistencies ~2-4%.
	if c.SizeTailAlpha <= 0 || c.SizeTailAlpha > 2.5 {
		t.Errorf("size tail α = %v, want heavy (<2.5)", c.SizeTailAlpha)
	}
	if c.TimeInconsistent < 0.005 || c.TimeInconsistent > 0.1 {
		t.Errorf("time-inconsistent fraction = %v, want ~0.02-0.04", c.TimeInconsistent)
	}
}

func TestTypeCensusOrdering(t *testing.T) {
	s := genSnapshot(t)
	slices, _, err := TypeCensus(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(slices) < 4 {
		t.Fatalf("type slices = %d", len(slices))
	}
	for i := 1; i < len(slices); i++ {
		if slices[i-1].Bytes < slices[i].Bytes {
			t.Fatal("type census not sorted by bytes")
		}
	}
	// §5: system binaries dominate bytes — the top slice should be a
	// system or development category.
	top := slices[0].Category
	if top.Major != "system" && top.Major != "development" && top.Major != "application" {
		t.Errorf("top byte category = %+v", top)
	}
}

func TestImageShareOfTail(t *testing.T) {
	s := genSnapshot(t)
	_, share, err := TypeCensus(s)
	if err != nil || share < 0.5 {
		t.Errorf("image share of top-1%% sizes = %.2f (err %v), want dominant (>0.5)", share, err)
	}
	if types, got, err := TypeCensus(&snapshot.Snapshot{}); len(types) != 0 || got != 0 || err != nil {
		t.Errorf("empty snapshot: %d types, share %v (err %v)", len(types), got, err)
	}
}

// twoPassTypeCensus and twoPassImageShare are the two walks §5 read the
// largest snapshot with before TypeCensus did both in one: the type
// decomposition, and the top-N image share from every file's lower-cased
// extension sorted with sort.Slice.
func twoPassTypeCensus(t *testing.T, s *snapshot.Snapshot) []TypeSlice {
	agg := map[TypeCategory]*TypeSlice{}
	err := s.Each(func(r *snapshot.WalkRecord) {
		if r.IsDir {
			return
		}
		cat := ClassifyExt(r.Ext())
		ts := agg[cat]
		if ts == nil {
			ts = &TypeSlice{Category: cat}
			agg[cat] = ts
		}
		ts.Files++
		ts.Bytes += r.Size
	})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]TypeSlice, 0, len(agg))
	for _, ts := range agg {
		out = append(out, *ts)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bytes != out[j].Bytes {
			return out[i].Bytes > out[j].Bytes
		}
		return out[i].Category.Minor < out[j].Category.Minor
	})
	return out
}

func twoPassImageShare(t *testing.T, s *snapshot.Snapshot, topN int) float64 {
	type f struct {
		size int64
		ext  string
	}
	var files []f
	err := s.Each(func(r *snapshot.WalkRecord) {
		if !r.IsDir {
			files = append(files, f{r.Size, r.Ext()})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(files, func(i, j int) bool { return files[i].size > files[j].size })
	topN = min(topN, len(files))
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

// TestTypeCensusMatchesTwoPasses pins the one-pass TypeCensus to the two
// walks it replaced, on a generated volume and on walks where many files
// share the size at the top-1% cut with extensions, in either case, that
// do and do not count as images: which of them fall inside the cut
// decides the share, so it holds only if the sort permutes them as
// sort.Slice did.
func TestTypeCensusMatchesTwoPasses(t *testing.T) {
	snaps := []*snapshot.Snapshot{genSnapshot(t)}
	exts := []string{"exe", "txt", "DLL", "doc", "Sys", "gif", "ttf", "", "fon"}
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 12, 13, 150, 999, 4000} {
		recs := []snapshot.WalkRecord{{Name: `\`, IsDir: true, NumFiles: n}}
		for i := 0; i < n; i++ {
			size := int64(rng.Intn(4)) << 20 // four sizes: ties everywhere, the cut among them
			name := "f" + itoa(i)
			if ext := exts[rng.Intn(len(exts))]; ext != "" {
				name += "." + ext
			}
			recs = append(recs, snapshot.WalkRecord{Depth: 1, Name: name, Size: size})
		}
		s, err := snapshot.New("m", `C:`, 0, recs)
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, s)
	}
	for i, s := range snaps {
		types, share, err := TypeCensus(s)
		if err != nil {
			t.Fatal(err)
		}
		files := 0
		for _, ts := range types {
			files += ts.Files
		}
		if want := twoPassTypeCensus(t, s); !reflect.DeepEqual(types, want) {
			t.Errorf("walk %d: types %+v, two passes %+v", i, types, want)
		}
		if want := twoPassImageShare(t, s, files/100+1); math.Float64bits(share) != math.Float64bits(want) {
			t.Errorf("walk %d: image share %v, two passes %v", i, share, want)
		}
	}
}

func TestAttributeChanges(t *testing.T) {
	fs := fsys.New(volume.FlavorNTFS, 8<<30)
	rng := sim.NewRNG(22)
	lay := fsgen.PopulateLocal(fs, rng, fsgen.Config{
		User: "bob", Category: machine.Personal, Now: 0,
	})
	day0 := snapshot.Take("m", `C:`, fs, 0)
	// Simulate a browsing day: new cache entries plus one doc edit.
	for i := 0; i < 50; i++ {
		fs.CreateFile(lay.WebCache+`\cache0\new`+itoa(i)+`.gif`, 2000, types.AttrNormal, sim.Time(sim.Hour))
	}
	fs.CreateFile(lay.DocsDir+`\edited.doc`, 9000, types.AttrNormal, sim.Time(sim.Hour))
	day1 := snapshot.Take("m", `C:`, fs, sim.Time(24*sim.Hour))
	ca, err := AttributeChanges(day0, day1)
	if err != nil {
		t.Fatal(err)
	}
	if ca.Added != 51 {
		t.Errorf("added = %d", ca.Added)
	}
	// 50 of 51 under the WWW cache ≈ 98%; all 51 under profiles... the
	// doc dir is also in the profile, so profile share is 100%.
	if ca.ProfileShare < 0.95 {
		t.Errorf("profile share = %.2f", ca.ProfileShare)
	}
	if ca.WebCacheShare < 0.90 || ca.WebCacheShare > 1.0 {
		t.Errorf("web cache share = %.2f, want ~0.98", ca.WebCacheShare)
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [8]byte
	n := len(b)
	for i > 0 {
		n--
		b[n] = byte('0' + i%10)
		i /= 10
	}
	return string(b[n:])
}

// walk streams every record of s into a slice.
func walk(t *testing.T, s *snapshot.Snapshot) []snapshot.WalkRecord {
	t.Helper()
	var out []snapshot.WalkRecord
	if err := s.Each(func(r *snapshot.WalkRecord) { out = append(out, *r) }); err != nil {
		t.Fatal(err)
	}
	return out
}

// sortCensus is Census as written before selection: stats.Summarize for
// the sizes and directory means, and a full-sort Hill estimate.
func sortCensus(t *testing.T, s *snapshot.Snapshot) ContentCensus {
	c := ContentCensus{Machine: s.Machine}
	var sizes []float64
	var dirFiles, dirSubs []float64
	inconsistent, timed := 0, 0
	for _, r := range walk(t, s) {
		if r.Depth > c.MaxDepth {
			c.MaxDepth = r.Depth
		}
		if r.IsDir {
			c.Dirs++
			dirFiles = append(dirFiles, float64(r.NumFiles))
			dirSubs = append(dirSubs, float64(r.NumSubdirs))
			continue
		}
		c.Files++
		c.Bytes += r.Size
		sizes = append(sizes, float64(r.Size))
		if r.LastModified != 0 && r.LastAccessed != 0 {
			timed++
			if r.LastModified > r.LastAccessed {
				inconsistent++
			}
		}
	}
	ss := stats.Summarize(sizes)
	c.SizeP50, c.SizeP90, c.SizeMax = ss.P50, ss.P90, ss.Max
	if len(sizes) > 100 {
		c.SizeTailAlpha = sortHill(sizes, len(sizes)/50+2)
	}
	c.MeanDirFiles = stats.Summarize(dirFiles).Mean
	c.MeanDirSubs = stats.Summarize(dirSubs).Mean
	if timed > 0 {
		c.TimeInconsistent = float64(inconsistent) / float64(timed)
	}
	return c
}

// sortHill is stats.Hill as written before selection: a full sort of a
// copy, reversed.
func sortHill(xs []float64, k int) float64 {
	if k < 2 || len(xs) <= k {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	slices.Sort(sorted)
	slices.Reverse(sorted)
	threshold := sorted[k]
	if threshold <= 0 {
		return 0
	}
	sum := 0.0
	for i := 0; i < k; i++ {
		if sorted[i] <= 0 {
			return 0
		}
		sum += math.Log(sorted[i] / threshold)
	}
	if sum == 0 {
		return 0
	}
	return float64(k) / sum
}

// TestCensusMatchesSortCensus pins the selecting Census to the sorting
// one on generated volumes of every machine category, NTFS and FAT, and
// on small and empty snapshots, each taken and decoded from its encoding.
func TestCensusMatchesSortCensus(t *testing.T) {
	var snaps []*snapshot.Snapshot
	cats := []machine.Category{machine.WalkUp, machine.Pool, machine.Personal, machine.Administrative, machine.Scientific}
	for i, cat := range cats {
		for _, flavor := range []volume.Flavor{volume.FlavorNTFS, volume.FlavorFAT} {
			fs := fsys.New(flavor, 8<<30)
			fsgen.PopulateLocal(fs, sim.NewRNG(uint64(40+i)), fsgen.Config{
				User: "u" + cat.String(), Category: cat, Now: sim.Time(30 * sim.Day),
			})
			snaps = append(snaps, snapshot.Take(cat.String(), `C:`, fs, sim.Time(30*sim.Day)))
		}
	}
	small, err := snapshot.New(snaps[0].Machine, snaps[0].Volume, snaps[0].TakenAt, walk(t, snaps[0])[:90])
	if err != nil {
		t.Fatal(err)
	}
	empty, err := snapshot.New("empty", "", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	snaps = append(snaps, small, empty)
	for _, s := range snaps {
		want := sortCensus(t, s)
		if got := census(t, s); got != want {
			t.Errorf("%s (%d records): Census %+v, sort-based %+v", s.Machine, s.Len(), got, want)
		}
		var enc bytes.Buffer
		if err := s.Write(&enc); err != nil {
			t.Fatal(err)
		}
		loaded, err := snapshot.Decode(enc.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if got := census(t, loaded); got != want {
			t.Errorf("%s decoded (%d records): Census %+v, sort-based %+v", s.Machine, s.Len(), got, want)
		}
	}
}

// BenchmarkCensus runs the §5 census over a generated personal volume's
// walk: ns_per_record is the parse and the census together.
func BenchmarkCensus(b *testing.B) {
	fs := fsys.New(volume.FlavorNTFS, 8<<30)
	fsgen.PopulateLocal(fs, sim.NewRNG(21), fsgen.Config{
		User: "alice", Category: machine.Personal, Now: sim.Time(60 * sim.Day),
	})
	s := snapshot.Take("m1", `C:`, fs, sim.Time(60*sim.Day))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Census(s); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*s.Len()), "ns_per_record")
}
