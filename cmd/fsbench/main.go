// Command fsbench turns a measured trace corpus into benchmark
// configuration and replays it — the paper's stated downstream use of the
// collection ("as configuration information for realistic file system
// benchmarks", §1) under the §7 requirement that synthetic workloads
// carry the measured heavy-tailed parameters.
//
// Usage:
//
//	fsbench fit    -in traces -out profile.json     # fit a profile
//	fsbench replay -profile profile.json -hours 2   # drive a machine with it
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/synth"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fsbench: ")
	if len(os.Args) < 2 {
		fmt.Println("usage: fsbench fit|replay [flags]")
		os.Exit(2)
	}
	switch os.Args[1] {
	case "fit":
		fs := flag.NewFlagSet("fit", flag.ExitOnError)
		in := fs.String("in", "traces", "trace corpus directory")
		out := fs.String("out", "profile.json", "output profile path")
		fs.Parse(os.Args[2:])
		c, err := core.LoadCorpusTrace(*in, nil, nil)
		if err != nil {
			log.Fatal(err)
		}
		pro, err := synth.Fit(c.DS)
		if err != nil {
			log.Fatal(err)
		}
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		if err := pro.Write(f); err != nil {
			log.Fatal(err)
		}
		f.Close()
		fmt.Printf("fitted profile: gap α=%.2f, control %.0f%%, RO %.0f%%, WO %.0f%%, RW %.0f%% → %s\n",
			pro.OpenGapMS.Alpha, 100*pro.ControlFraction, 100*pro.ReadOnlyFraction,
			100*pro.WriteOnlyFraction, 100*pro.ReadWriteFraction, *out)
	case "replay":
		fs := flag.NewFlagSet("replay", flag.ExitOnError)
		proPath := fs.String("profile", "profile.json", "profile to replay")
		hours := fs.Float64("hours", 2, "simulated hours")
		seed := fs.Uint64("seed", 9, "seed")
		fs.Parse(os.Args[2:])
		f, err := os.Open(*proPath)
		if err != nil {
			log.Fatal(err)
		}
		pro, err := synth.ReadProfile(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		study := core.NewStudy(core.Config{Seed: *seed, Machines: 1,
			Duration: sim.FromSeconds(*hours * 3600)})
		node := study.Nodes[0]
		node.Driver.Apps = nil
		p := workload.NewProc(node.M, "synthbench", `C:`, sim.NewRNG(*seed+1))
		node.Driver.AddApp(synth.NewReplayer(p, node.Layout, pro, sim.NewRNG(*seed+2)))
		if err := study.Run(); err != nil {
			log.Fatal(err)
		}
		ds, err := study.DataSet()
		if err != nil {
			log.Fatal(err)
		}
		check, err := synth.Fit(ds)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("replayed %d events over %.1f h\n", study.TotalEvents(), *hours)
		fmt.Printf("source vs replay: control %.0f%%→%.0f%%  RO %.0f%%→%.0f%%  WO %.0f%%→%.0f%%  gap α %.2f→%.2f\n",
			100*pro.ControlFraction, 100*check.ControlFraction,
			100*pro.ReadOnlyFraction, 100*check.ReadOnlyFraction,
			100*pro.WriteOnlyFraction, 100*check.WriteOnlyFraction,
			pro.OpenGapMS.Alpha, check.OpenGapMS.Alpha)
	default:
		log.Fatalf("unknown subcommand %q", os.Args[1])
	}
}
