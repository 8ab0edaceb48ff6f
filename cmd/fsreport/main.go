// Command fsreport prints the paper-versus-measured report — every
// table, every figure and the section summaries, in publication order —
// or the sections named as arguments, in the order given. It runs a
// study end-to-end, or loads a corpus saved by fsfleet with -in.
//
// Usage:
//
//	fsreport -machines 20 -hours 12 -seed 1
//	fsreport -in traces/
//	fsreport -in traces/ table2 figure10 section9
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strings"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fsreport: ")
	var (
		in       = flag.String("in", "", "load a saved corpus instead of running a study")
		machines = flag.Int("machines", 15, "fleet size when running a fresh study")
		hours    = flag.Float64("hours", 8, "simulated hours when running a fresh study")
		seed     = flag.Uint64("seed", 1, "study seed")
	)
	flag.Parse()
	sections, err := report.Select(flag.Args()...)
	if err != nil {
		log.Fatal(err)
	}

	var r *report.Results
	var snaps []*snapshot.Snapshot
	if *in != "" {
		c, err := core.LoadCorpusTrace(*in, nil, nil)
		if err != nil {
			log.Fatal(err)
		}
		snaps = c.Snaps
		r = report.ComputeWorkers(c.DS, runtime.GOMAXPROCS(0))
	} else {
		fmt.Fprintf(os.Stderr, "running %d machines for %.1f simulated hours...\n", *machines, *hours)
		study := core.NewStudy(core.Config{
			Seed:            *seed,
			Machines:        *machines,
			Duration:        sim.FromSeconds(*hours * 3600),
			WithNetwork:     true,
			SnapshotAtStart: true,
		})
		if err := study.Run(); err != nil {
			log.Fatal(err)
		}
		snaps = study.Snapshots
		if r, err = study.Results(); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "collected %d records on %d machines\n",
			r.TotalRecords(), len(r.DS.Machines))
	}

	// §5 reads snapshot records, which a loaded corpus checks only when
	// they are read. Render every section first and print only a whole
	// report, so a bad record fails the run, naming its file, with
	// nothing printed.
	var out strings.Builder
	for _, s := range sections {
		text, err := s.Render(r, snaps)
		if err != nil {
			log.Fatal(err)
		}
		out.WriteString(text)
		out.WriteByte('\n')
	}
	fmt.Print(out.String())
}
