package report

import (
	"fmt"
	"strings"

	"repro/internal/snapshot"
)

// Section is one part of the report: the name fsreport and /v1/report
// select it by, and its renderer. Only §5 reads the snapshots, and only
// §5 can fail: a loaded corpus checks a snapshot's records when §5 reads
// them.
type Section struct {
	Name   string
	Render func(r *Results, snaps []*snapshot.Snapshot) (string, error)
}

// sweepSizesMB are the file-cache sizes the cache-policy sweep replays.
var sweepSizesMB = []float64{1, 4, 16}

// Sections is the report in print order: Tables 1–3, Figures 1–14, the
// section summaries, the §12 extensions and the cache-policy sweep.
var Sections = []Section{
	plain("table1", (*Results).Table1),
	plain("table2", (*Results).Table2),
	plain("table3", (*Results).Table3),
	plain("figure1", (*Results).Figure1),
	plain("figure2", (*Results).Figure2),
	plain("figure3", (*Results).Figure3),
	plain("figure4", (*Results).Figure4),
	plain("figure5", (*Results).Figure5),
	plain("figure6", (*Results).Figure6),
	plain("figure7", (*Results).Figure7),
	plain("figure8", (*Results).Figure8),
	plain("figure9", (*Results).Figure9),
	plain("figure10", (*Results).Figure10),
	plain("figure11", (*Results).Figure11),
	plain("figure12", (*Results).Figure12),
	plain("figure13", (*Results).Figure13),
	plain("figure14", (*Results).Figure14),
	{"section5", (*Results).RenderSection5},
	plain("section6", (*Results).Section6Lifetimes),
	plain("section8", (*Results).Section8),
	plain("section9", (*Results).Section9),
	plain("section10", (*Results).Section10),
	plain("section7", (*Results).Section7SelfSim),
	plain("process", (*Results).ProcessView),
	plain("type", (*Results).TypeView),
	plain("followups", (*Results).FollowUps),
	plain("cachesweep", func(r *Results) string { return r.CacheSweep(sweepSizesMB) }),
}

// plain adapts a renderer that reads no snapshots and cannot fail.
func plain(name string, render func(*Results) string) Section {
	return Section{name, func(r *Results, _ []*snapshot.Snapshot) (string, error) { return render(r), nil }}
}

// Names lists the section names in print order.
func Names() []string {
	names := make([]string, len(Sections))
	for i, s := range Sections {
		names[i] = s.Name
	}
	return names
}

// Lookup returns the section called name.
func Lookup(name string) (Section, bool) {
	for _, s := range Sections {
		if s.Name == name {
			return s, true
		}
	}
	return Section{}, false
}

// Select returns the sections called names, in the order given, or the
// whole report when names is empty. An unknown name is an error that
// lists the valid ones.
func Select(names ...string) ([]Section, error) {
	if len(names) == 0 {
		return Sections, nil
	}
	sel := make([]Section, len(names))
	for i, name := range names {
		s, ok := Lookup(name)
		if !ok {
			return nil, fmt.Errorf("report: unknown section %q; valid names: %s", name, strings.Join(Names(), " "))
		}
		sel[i] = s
	}
	return sel, nil
}
