// Command fsreplay re-drives a trace corpus saved by fsfleet through a
// freshly built simulated NT stack, and optionally validates that the
// replayed trace reproduces the original's headline metrics.
//
// Usage:
//
//	fsreplay -in traces/ -mode fast -validate
//	fsreplay -in traces/ -mode faithful -out replayed/
//	fsreplay -in traces/ -block-fastio -validate   (expected to FAIL validation)
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/analysis"
	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/replay"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fsreplay: ")
	in := flag.String("in", "traces", "trace corpus directory (from fsfleet)")
	modeName := flag.String("mode", "fast", "replay clock: fast (back-to-back) or faithful (recorded timestamps)")
	validate := flag.Bool("validate", false, "diff replayed-vs-original metrics; exit 1 outside tolerance")
	seed := flag.Uint64("seed", 1, "seed for the replayed machines' random streams")
	blockFastIO := flag.Bool("block-fastio", false, "insert the Opaque filter on every volume (§10 what-if)")
	cacheMB := flag.Int64("cache-mb", 0, "file cache size override in MB (0 = stack default)")
	out := flag.String("out", "", "save the replayed trace corpus to this directory")
	flag.Parse()

	mode, err := replay.ParseMode(*modeName)
	if err != nil {
		log.Fatal(err)
	}

	c, err := core.LoadCorpusTrace(*in, nil, nil)
	if err != nil {
		log.Fatal(err)
	}
	ds := c.DS

	cfg := replay.Config{
		Mode:        mode,
		Seed:        *seed,
		BlockFastIO: *blockFastIO,
		CacheBytes:  *cacheMB << 20,
	}
	res, err := replay.Replay(ds, cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("replayed %d machines (%s mode, seed %d)\n", len(res.Machines), mode, *seed)
	for _, mr := range res.Machines {
		p := mr.Plan
		fmt.Printf("  %-16s %8d records  %8d steps  %6d skipped  issued %8d  diverged %6d  dead %5d  fastio %d/%d\n",
			mr.Machine, p.Records(), len(p.Steps), p.Skips.Total(),
			mr.Issued, mr.Diverged, mr.Dead,
			mr.Stats.FastIoSucceeded, mr.Stats.FastIoAttempts)
	}

	if *out != "" {
		if err := saveReplayed(*out, res, ds); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("replayed corpus saved to %s\n", *out)
	}

	if *validate {
		rds, err := res.DataSet(ds)
		if err != nil {
			log.Fatal(err)
		}
		v, err := replay.Validate(ds, rds, mode)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("\nvalidation (original vs replayed):")
		for _, d := range v.Deltas {
			fmt.Println("  " + d.String())
		}
		if !v.Pass() {
			fmt.Println("FAIL: replay outside tolerance")
			os.Exit(1)
		}
		fmt.Println("PASS: replay within tolerance")
	}
}

// saveReplayed writes the replayed corpus into dir: its segments, and the
// manifest that gives each replayed machine the category and process
// names of the machine of ds it replays.
func saveReplayed(dir string, res *replay.Result, ds *analysis.DataSet) error {
	if _, err := res.Store.SaveColumnarDir(dir, colstore.Options{}); err != nil {
		return err
	}
	machines := make([]core.MachineInfo, len(ds.Machines))
	for i, mt := range ds.Machines {
		machines[i] = core.MachineInfo{Name: mt.Name, Category: mt.Category, ProcNames: mt.ProcNames}
	}
	return core.WriteManifest(dir, machines)
}
