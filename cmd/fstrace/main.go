// Command fstrace runs a simulated trace collection — the §2/§3 study: a
// fleet of Windows NT 4.0 machines instrumented with the trace filter
// driver, shipping records to the collection store, with daily file
// system snapshots — and saves the resulting corpus (colstore segments,
// snapshots and the machine manifest) to a directory for analysis with
// fsanalyze/fsreport.
//
// Usage:
//
//	fstrace -out traces/ -machines 45 -hours 24 -seed 1
//	fstrace -collect host:9470 -machines 45 -hours 24   # ship to a live server
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fstrace: ")
	var (
		out      = flag.String("out", "traces", "output directory for the trace corpus")
		machines = flag.Int("machines", 45, "fleet size (paper: 45)")
		hours    = flag.Float64("hours", 24, "traced period in simulated hours (paper: 4 weeks)")
		seed     = flag.Uint64("seed", 1, "study seed (same seed ⇒ identical study)")
		network  = flag.Bool("network", true, "mount per-user network shares over the redirector")
		noFast   = flag.Bool("block-fastio", false, "insert an opaque filter that blocks FastIO (§10 ablation)")
		workers  = flag.Int("workers", 1, "machine shards running concurrently (results are identical at any count)")
		collAddr = flag.String("collect", "", "ship trace streams to a live collection server at this address (corpus lives server-side)")
		spill    = flag.Int("spill", 0, "per-agent spill-ring capacity in buffers for -collect (0 = default 64)")
		metrics  = flag.String("metrics-addr", "", "serve live Prometheus-text /metrics and /debug/pprof on this address")
	)
	flag.Parse()

	reg := obs.NewRegistry()
	if *metrics != "" {
		ms, err := obs.Serve(*metrics, reg)
		if err != nil {
			log.Fatal(err)
		}
		defer ms.Close()
		fmt.Fprintf(os.Stderr, "metrics on http://%s/metrics (pprof on /debug/pprof/)\n", ms.Addr)
	}

	study := core.NewStudy(core.Config{
		Seed:            *seed,
		Machines:        *machines,
		Duration:        sim.FromSeconds(*hours * 3600),
		WithNetwork:     *network,
		SnapshotAtStart: true,
		FastIOBlocked:   *noFast,
		Workers:         *workers,
		CollectAddr:     *collAddr,
		NetSink:         agent.NetSinkConfig{SpillSlots: *spill},
		Obs:             reg,
	})
	fmt.Fprintf(os.Stderr, "running %d machines for %.1f simulated hours (seed %d)...\n",
		*machines, *hours, *seed)
	if err := study.Run(); err != nil {
		log.Fatal(err)
	}
	if *collAddr != "" {
		ns := study.NetStats()
		fmt.Fprintf(os.Stderr, "shipped %d records to %s (%d spilled buffers, %d send errors, %d reconnects)\n",
			ns.Shipped, *collAddr, ns.Spilled, ns.SendErrors, ns.Reconnects)
		if ns.Lost > 0 {
			fmt.Fprintf(os.Stderr, "WARNING: %d records LOST (spill-ring overflow or drain timeout)\n", ns.Lost)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "no records lost")
		return
	}
	fmt.Fprintf(os.Stderr, "collected %d trace records, %d snapshots, %d KB compressed\n",
		study.TotalEvents(), len(study.Snapshots), study.Store.CompressedBytes()/1024)
	if err := study.Save(*out); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "saved corpus to %s\n", *out)
}
