// Command fssnap works with file-system snapshots: it summarises a saved
// snapshot file and diffs two snapshots the way §5 analyses day-over-day
// content change (profile-tree and WWW-cache shares). It reads the binary
// *.snap files a saved corpus holds.
//
// Usage:
//
//	fssnap info  traces/personal-01-000.snap
//	fssnap diff  day0.snap day1.snap
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/snapshot"
	"repro/internal/stats"
)

func load(path string) *snapshot.Snapshot {
	s, err := snapshot.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	return s
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("fssnap: ")
	flag.Parse()
	args := flag.Args()
	if len(args) < 2 {
		fmt.Println("usage: fssnap info <snap> | fssnap diff <old> <new>")
		os.Exit(2)
	}
	switch args[0] {
	case "info":
		s := load(args[1])
		var sizes []float64
		var dirs int
		var total int64
		err := s.Each(func(r *snapshot.WalkRecord) {
			if r.IsDir {
				dirs++
				return
			}
			sizes = append(sizes, float64(r.Size))
			total += r.Size
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("machine %s volume %s taken %v\n", s.Machine, s.Volume, s.TakenAt)
		fmt.Printf("  %d files, %d directories, %d MB\n", len(sizes), dirs, total>>20)
		sm := stats.Summarize(sizes)
		fmt.Printf("  file sizes: p50=%.0fB p90=%.0fB max=%.0fB\n", sm.P50, sm.P90, sm.Max)
		fmt.Printf("  size tail: Hill α = %.2f\n", stats.Hill(sizes, len(sizes)/50+2))
	case "diff":
		if len(args) < 3 {
			log.Fatal("diff needs two snapshot files")
		}
		oldS, newS := load(args[1]), load(args[2])
		oldEntries, err := oldS.Entries()
		if err != nil {
			log.Fatal(err)
		}
		newEntries, err := newS.Entries()
		if err != nil {
			log.Fatal(err)
		}
		d := snapshot.CompareEntries(oldEntries, newEntries)
		fmt.Printf("added %d, changed %d, removed %d entries\n",
			len(d.Added), len(d.Changed), len(d.Removed))
		fmt.Printf("  share under \\winnt\\profiles: %.0f%% (paper: 94%%)\n",
			100*d.FractionUnder(`\winnt\profiles`))
		// Locate the WWW cache under any profile.
		for _, e := range newEntries {
			if e.Rec.IsDir && e.Rec.Name == "Temporary Internet Files" {
				fmt.Printf("  share under %s: %.0f%% (paper: up to 90%%)\n",
					e.Path, 100*d.FractionUnder(e.Path))
				break
			}
		}
	default:
		log.Fatalf("unknown subcommand %q", args[0])
	}
}
