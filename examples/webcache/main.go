// Webcache: a personal-usage machine traced across a simulated day with
// snapshots at the start and end — the §5 content-change study. It shows
// where the file system changed (the profile tree and its WWW cache), and
// the §6.3 new-file lifetime population the browsing/temp churn creates.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

func main() {
	var webcache string
	study := core.NewStudy(core.Config{
		Seed:            11,
		Machines:        1,
		Duration:        18 * sim.Hour, // spans the 4 a.m. snapshot
		WithNetwork:     true,
		SnapshotAtStart: true,
		Prepare:         func(n *core.Node) { webcache = n.Layout.WebCache },
	})
	if err := study.Run(); err != nil {
		log.Fatal(err)
	}

	// Day-over-day content change (§5).
	var first, last *snapshot.Snapshot
	for _, s := range study.Snapshots {
		if s.Volume != `C:` {
			continue
		}
		if first == nil {
			first = s
		}
		last = s
	}
	if first == nil || last == first {
		log.Fatal("need at least two snapshots of C:")
	}
	d, err := snapshot.Compare(first, last)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("content change over %.0f simulated hours:\n",
		last.TakenAt.Sub(first.TakenAt).Seconds()/3600)
	fmt.Printf("  %d added, %d changed, %d removed files\n",
		len(d.Added), len(d.Changed), len(d.Removed))
	fmt.Printf("  fraction of changes under \\winnt\\profiles: %.0f%% (paper: 94%%)\n",
		100*d.FractionUnder(`\winnt\profiles`))
	fmt.Printf("  fraction under the WWW cache (%s): %.0f%% (paper: up to 90%%)\n",
		webcache, 100*d.FractionUnder(webcache))

	// New-file lifetimes (§6.3, Figures 6/7).
	r, err := study.Results()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Println(r.Section6Lifetimes())
	fmt.Println(r.Figure6())
	fmt.Println(r.Figure7())
}
