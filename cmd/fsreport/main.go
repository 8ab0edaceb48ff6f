// Command fsreport runs a study end-to-end (or loads a saved corpus) and
// prints the complete paper-versus-measured report: every table, every
// figure, and the section summaries, in publication order.
//
// Usage:
//
//	fsreport -machines 20 -hours 12 -seed 1
//	fsreport -in traces/
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"

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
		var err error
		r, err = study.Results()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "collected %d records on %d machines\n",
			r.TotalRecords(), len(r.DS.Machines))
	}

	sections := []func() string{
		r.Table1, r.Table2, r.Table3,
		r.Figure1, r.Figure2, r.Figure3, r.Figure4, r.Figure5,
		r.Figure6, r.Figure7, r.Figure8, r.Figure9, r.Figure10,
		r.Figure11, r.Figure12, r.Figure13, r.Figure14,
		func() string { return r.Section5(snaps) },
		r.Section6Lifetimes, r.Section8, r.Section9, r.Section10,
		r.Section7SelfSim, r.ProcessView, r.TypeView, r.FollowUps,
		func() string { return r.CacheSweep([]float64{1, 4, 16}) },
	}
	for _, s := range sections {
		fmt.Println(s())
	}
}
