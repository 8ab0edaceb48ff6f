package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// Workload parameters shared by all three workloads: the paper's 45-machine
// category mix with network shares, a day-0 snapshot, and the columnar
// corpus layout.
const (
	fleetMachines = 45
	simMinutes    = 5

	// machineMinutes is the traced machine time one pipeline produces and
	// one analysis pass reads: the unit of the throughput metric, as the
	// paper costs its apparatus per machine-day. On reproduce and analyze
	// throughput_per_s is machineMinutes over op_p50_ms, no new
	// information: it is reported because every workload must report
	// every end-to-end metric.
	machineMinutes = fleetMachines * simMinutes
)

func studyConfig(seed uint64) core.Config {
	return core.Config{
		Seed:            seed,
		Machines:        fleetMachines,
		Duration:        sim.FromSeconds(simMinutes * 60),
		WithNetwork:     true,
		SnapshotAtStart: true,
		Columnar:        true,
		Workers:         workers(),
	}
}

func (r *run) stampStudy() {
	r.params["machines"] = fleetMachines
	r.params["sim_minutes"] = simMinutes
	r.params["workers"] = workers()
	r.params["layout"] = "columnar"
}

// expectFile lists, per machine, the SHA-256 of the record stream the
// simulation collected, which a loaded segment must carry, and the
// machine's stored-stream digest (collect.Store.StreamSum).
const expectFile = "expect.sha256"

// buildCorpus is the set-up of analyze and serve: simulate the seed's
// fleet and save its corpus. It prints how long that took, then records
// each machine's digests (untimed) for the parent's checks.
func buildCorpus(dir string, seed uint64) error {
	start := time.Now()
	st := core.NewStudy(studyConfig(seed))
	if err := st.Run(); err != nil {
		return err
	}
	if err := st.Save(dir); err != nil {
		return err
	}
	fmt.Printf("setup_ns %d\n", time.Since(start).Nanoseconds())
	// Flush the corpus to disk now, so its writeback does not compete
	// with the measured passes that read it.
	if err := syncDir(dir); err != nil {
		return err
	}
	rows, err := rowDigests(st)
	if err != nil {
		return err
	}
	streams, err := streamSums(st)
	if err != nil {
		return err
	}
	var b strings.Builder
	for _, m := range st.Store.Machines() {
		fmt.Fprintf(&b, "%s %s %s\n", rows[m], streams[m], m)
	}
	return os.WriteFile(filepath.Join(dir, expectFile), []byte(b.String()), 0o644)
}

// syncDir fsyncs every file in dir, then dir itself.
func syncDir(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if err := syncPath(filepath.Join(dir, e.Name())); err != nil {
			return err
		}
	}
	return syncPath(dir)
}

func syncPath(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

// streamSums are the digests of each machine's stored (compressed) stream.
func streamSums(st *core.Study) (map[string]string, error) {
	out := map[string]string{}
	for _, m := range st.Store.Machines() {
		sum, err := st.Store.StreamSum(m)
		if err != nil {
			return nil, err
		}
		out[m] = hexSum(sum)
	}
	return out, nil
}

// rowDigests are the digests of each machine's decoded record stream, the
// definition a columnar segment's footer digest shares.
func rowDigests(st *core.Study) (map[string]string, error) {
	out := map[string]string{}
	for _, m := range st.Store.Machines() {
		recs, err := st.Store.Records(m)
		if err != nil {
			return nil, err
		}
		out[m] = hexSum(colstore.RowStreamSHA(recs))
	}
	return out, nil
}

// readExpect reads expectFile: per machine, the row-stream digest and the
// stored-stream digest.
func readExpect(dir string) (rows, streams map[string]string, err error) {
	data, err := os.ReadFile(filepath.Join(dir, expectFile))
	if err != nil {
		return nil, nil, err
	}
	rows, streams = map[string]string{}, map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		f := strings.Fields(line)
		if len(f) != 3 {
			return nil, nil, fmt.Errorf("%s: malformed line %q", expectFile, line)
		}
		rows[f[2]], streams[f[2]] = f[0], f[1]
	}
	return rows, streams, nil
}

// checkSegments compares every loaded segment's logical stream digest
// with the digest the simulation recorded.
func (r *run) checkSegments(segs map[string]*colstore.Segment, want map[string]string) {
	r.check(len(segs) == len(want), "loaded %d segments, expected %d", len(segs), len(want))
	for name, seg := range segs {
		got := hexSum(seg.SHA256())
		r.check(got == want[name], "segment %s digest %s, simulation recorded %s", name, got[:12], want[name])
	}
}

// rendered is the report fsreport prints, split where the traced run
// times it: every section but the cache-policy sweep, then the sweep.
type rendered struct {
	sections []string
	sweep    string
}

func renderReport(res *report.Results, snaps []*snapshot.Snapshot) rendered {
	fns := []func() string{
		res.Table1, res.Table2, res.Table3,
		res.Figure1, res.Figure2, res.Figure3, res.Figure4, res.Figure5,
		res.Figure6, res.Figure7, res.Figure8, res.Figure9, res.Figure10,
		res.Figure11, res.Figure12, res.Figure13, res.Figure14,
		func() string { return res.Section5(snaps) },
		res.Section6Lifetimes, res.Section8, res.Section9, res.Section10,
		res.Section7SelfSim, res.ProcessView, res.TypeView, res.FollowUps,
	}
	out := rendered{sections: make([]string, len(fns))}
	for i, f := range fns {
		out.sections[i] = f()
	}
	return out
}

func renderSweep(res *report.Results) string { return res.CacheSweep([]float64{1, 4, 16}) }

func (rd rendered) text() string {
	return strings.Join(rd.sections, "\n") + "\n" + rd.sweep + "\n"
}

// unstableLine matches the one report line whose content is not a
// function of the corpus: Section 5 picks its change-attribution exemplar
// by ranging over a map, so the machine|volume it names varies between
// identical renders. Every other byte of the report must be stable.
var unstableLine = regexp.MustCompile(`^  \S+\|\S+: \+\d+ ~\d+ -\d+ files; profile share `)

// maskedDigest hashes the report with the unstable line replaced, and
// counts how many lines were masked.
func maskedDigest(text string) (string, int) {
	lines := strings.Split(text, "\n")
	masked := 0
	for i, l := range lines {
		if unstableLine.MatchString(l) {
			lines[i] = "  <exemplar masked>"
			masked++
		}
	}
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return hex.EncodeToString(sum[:]), masked
}

// reportChecker keeps the run's first render and compares every later
// render with it line by line, so a difference outside the masked line is
// reported where it is. When the seed is pinned, every render's masked
// digest must also equal the pinned one.
type reportChecker struct {
	first  []string
	digest string
}

func (r *run) checkReport(c *reportChecker, text string) {
	digest, masked := maskedDigest(text)
	r.check(masked <= 1, "report has %d lines matching the unstable-exemplar pattern, want at most 1", masked)
	if r.pins != nil {
		want := r.pins.Reports[r.workload]
		r.check(digest == want, "report masked digest %.12s, pinned %.12s", digest, want)
	}
	r.check(strings.Contains(text, "Section 5. File system content") && strings.Contains(text, "Cache policy sweep"),
		"report is missing sections")
	lines := strings.Split(text, "\n")
	if c.first == nil {
		c.first, c.digest = lines, digest
		r.params["report_sha256_masked"] = digest
		return
	}
	if digest == c.digest {
		r.check(true, "")
		return
	}
	diff := fmt.Sprintf("line count %d vs %d", len(lines), len(c.first))
	if len(lines) == len(c.first) {
		for i := range lines {
			if lines[i] != c.first[i] && !(unstableLine.MatchString(lines[i]) && unstableLine.MatchString(c.first[i])) {
				diff = fmt.Sprintf("line %d: %q vs %q", i+1, lines[i], c.first[i])
				break
			}
		}
	}
	r.check(false, "report differs from the run's first render (masked digest %s vs %s): %s", digest[:12], c.digest[:12], diff)
}

// checkSection5Stability renders Section 5 several times from the same
// inputs and requires every line except the masked exemplar to repeat
// byte for byte: the self-test that the mask hides nothing else.
func (r *run) checkSection5Stability(res *report.Results, snaps []*snapshot.Snapshot, renders int) int {
	base := strings.Split(res.Section5(snaps), "\n")
	variants := map[string]bool{}
	for i := 0; i < renders; i++ {
		lines := strings.Split(res.Section5(snaps), "\n")
		ok := len(lines) == len(base)
		for j := 0; ok && j < len(lines); j++ {
			if lines[j] == base[j] {
				continue
			}
			if unstableLine.MatchString(lines[j]) && unstableLine.MatchString(base[j]) {
				variants[lines[j]] = true
				continue
			}
			ok = false
		}
		r.check(ok, "Section 5 render %d differs from the first outside the masked exemplar line", i+2)
	}
	return len(variants)
}

func gitCommit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
