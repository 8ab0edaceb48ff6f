package analysis

import (
	"math/bits"
	"runtime"

	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/tracefmt"
)

// This file implements the corpus index of the query engine. The paper's
// §4 pipeline reduced the trace to a star schema once and answered every
// question from it; our equivalent is an inverted index over the trace
// fact table — record positions grouped by event kind, in stream order —
// so the heavy figures (lifetimes, §7 self-similarity, cache sweeps,
// request-class splits) select exactly the records they need instead of
// rescanning the full stream per figure.

// MachineIndex is one machine's inverted index: for each of the 54 event
// kinds, the positions of its records in the trace's column table,
// ascending. Because the table is sorted by start time, position order
// is time order.
type MachineIndex struct {
	kinds [tracefmt.NumEventKinds][]int32
	// openTimes are the start timestamps of every open attempt
	// (EvCreate/EvCreateFailed), ascending — the Figure 8–10 sample
	// series, precomputed because four figures and the §7 extension all
	// start from it.
	openTimes []sim.Time
}

// Index returns the machine's inverted index, building it on first use
// straight off the kind and start vectors — two narrow columns.
func (mt *MachineTrace) Index() *MachineIndex {
	mt.idxOnce.Do(func() {
		ix := &MachineIndex{}
		kinds, starts := mt.tab.Kinds, mt.tab.Starts
		// Size the per-kind lists in one counting pass so the big kinds
		// (reads, writes) allocate exactly once.
		var counts [tracefmt.NumEventKinds]int32
		for _, k := range kinds {
			if int(k) < tracefmt.NumEventKinds {
				counts[k]++
			}
		}
		for k, c := range counts {
			if c > 0 {
				ix.kinds[k] = make([]int32, 0, c)
			}
		}
		for i, k := range kinds {
			if int(k) >= tracefmt.NumEventKinds {
				continue
			}
			ix.kinds[k] = append(ix.kinds[k], int32(i))
			if k == tracefmt.EvCreate || k == tracefmt.EvCreateFailed {
				ix.openTimes = append(ix.openTimes, starts[i])
			}
		}
		mt.idx = ix
	})
	return mt.idx
}

// OfKind returns the positions of all records of kind k, ascending. The
// slice is shared — callers must not mutate it.
func (ix *MachineIndex) OfKind(k tracefmt.EventKind) []int32 {
	if int(k) >= tracefmt.NumEventKinds {
		return nil
	}
	return ix.kinds[k]
}

// Select merges the positions of several kinds into one ascending list —
// the record subset a scan over those kinds visits, in the exact order
// the full-stream scan would visit them. With a single populated kind
// (passed once or more) the shared per-kind list is returned; callers
// must not mutate it. Otherwise each listed position sets its bit in a
// bitmap over the rows the lists span, which is read back in ascending
// order: O(total + span/64), where merging the lists row by row was
// O(total × kinds). Positions are distinct across kinds, so each row
// appears once, even for a kind passed twice.
func (ix *MachineIndex) Select(kinds ...tracefmt.EventKind) []int32 {
	var seen [tracefmt.NumEventKinds]bool
	var first []int32
	lists, total := 0, 0
	lo, hi := int32(0), int32(0) // the rows the lists span
	for _, k := range kinds {
		l := ix.OfKind(k)
		if len(l) == 0 || seen[k] {
			continue
		}
		seen[k] = true
		if lists == 0 || l[0] < lo {
			lo = l[0]
		}
		if lists == 0 || l[len(l)-1] > hi {
			hi = l[len(l)-1]
		}
		if lists == 0 {
			first = l
		}
		lists++
		total += len(l)
	}
	switch lists {
	case 0:
		return nil
	case 1:
		return first
	}
	base := lo &^ 63
	words := make([]uint64, (hi-base)/64+1)
	for k, on := range seen {
		if on {
			for _, i := range ix.kinds[k] {
				i -= base
				words[i>>6] |= 1 << (i & 63)
			}
		}
	}
	out := make([]int32, 0, total)
	for w, word := range words {
		for ; word != 0; word &= word - 1 {
			out = append(out, base+int32(w<<6|bits.TrailingZeros64(word)))
		}
	}
	return out
}

// OpenTimes returns the start timestamps of every open attempt,
// ascending. The slice is shared — callers must not mutate it.
func (ix *MachineIndex) OpenTimes() []sim.Time { return ix.openTimes }

// Index is the corpus-level query surface: every machine's inverted
// index, built in parallel on first use and cached on the DataSet.
type Index struct {
	// ByMachine maps machine name → its index.
	ByMachine map[string]*MachineIndex
	// Machines preserves corpus order (ByMachine is unordered).
	Machines []*MachineIndex
}

// Index returns the corpus index, building every machine's index in
// parallel on first use. Subsequent calls return the cached value.
func (ds *DataSet) Index() *Index {
	ds.idxOnce.Do(func() {
		ix := &Index{ByMachine: make(map[string]*MachineIndex, len(ds.Machines))}
		par.For(runtime.GOMAXPROCS(0), len(ds.Machines), func(i int) { ds.Machines[i].Index() })
		for _, mt := range ds.Machines {
			ix.ByMachine[mt.Name] = mt.idx
			ix.Machines = append(ix.Machines, mt.idx)
		}
		ds.idx = ix
	})
	return ds.idx
}
