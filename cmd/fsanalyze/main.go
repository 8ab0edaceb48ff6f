// Command fsanalyze loads a trace corpus saved by fstrace and prints any
// of the paper's tables and figures.
//
// Usage:
//
//	fsanalyze -in traces/ table2
//	fsanalyze -in traces/ fig10 fig13
//	fsanalyze -in traces/ all
package main

import (
	"flag"
	"fmt"
	"log"
	"runtime"
	"strings"

	"repro/internal/core"
	"repro/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fsanalyze: ")
	in := flag.String("in", "traces", "trace corpus directory (from fstrace)")
	flag.Parse()

	c, err := core.LoadCorpusTrace(*in, nil, nil)
	if err != nil {
		log.Fatal(err)
	}
	if len(c.DS.Machines) == 0 {
		log.Fatal("no machine traces found in ", *in)
	}
	snaps := c.Snaps
	r := report.ComputeWorkers(c.DS, runtime.GOMAXPROCS(0))

	renders := map[string]func() string{
		"table1": r.Table1, "table2": r.Table2, "table3": r.Table3,
		"fig1": r.Figure1, "fig2": r.Figure2, "fig3": r.Figure3,
		"fig4": r.Figure4, "fig5": r.Figure5, "fig6": r.Figure6,
		"fig7": r.Figure7, "fig8": r.Figure8, "fig9": r.Figure9,
		"fig10": r.Figure10, "fig11": r.Figure11, "fig12": r.Figure12,
		"fig13": r.Figure13, "fig14": r.Figure14,
		"sec6": r.Section6Lifetimes, "sec8": r.Section8,
		"sec9": r.Section9, "sec10": r.Section10,
		"sec5": func() string {
			text, err := r.RenderSection5(snaps)
			if err != nil {
				log.Fatal(err)
			}
			return text
		},
		"sec7x":     r.Section7SelfSim,
		"procs":     r.ProcessView,
		"types":     r.TypeView,
		"cachesim":  func() string { return r.CacheSweep([]float64{1, 4, 16, 64}) },
		"followups": r.FollowUps,
	}
	order := []string{
		"table1", "table2", "table3",
		"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
		"fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
		"sec5", "sec6", "sec8", "sec9", "sec10",
		"sec7x", "procs", "types", "cachesim", "followups",
	}

	args := flag.Args()
	if len(args) == 0 {
		fmt.Println("specify artefacts to print, e.g.: table2 fig10 sec9, or 'all'; available:")
		fmt.Println("  " + strings.Join(order, " "))
		return
	}
	if len(args) == 1 && args[0] == "all" {
		args = order
	}
	for _, a := range args {
		f, ok := renders[strings.ToLower(a)]
		if !ok {
			log.Fatalf("unknown artefact %q (try: %s)", a, strings.Join(order, " "))
		}
		fmt.Println(f())
	}
}
