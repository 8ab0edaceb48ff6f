package analysis

import (
	"repro/internal/ntos/types"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tracefmt"
)

// This file implements the paper's §2 follow-up traces, run "on selected
// systems to understand particular issues that were unclear in the
// original traces": the burst behaviour of paging I/O, reads from
// compressed large files, and the throughput of directory operations.

// PagingBurst summarises the burst behaviour of paging I/O.
type PagingBurst struct {
	Requests int
	// Dispersion of per-second paging-request counts (Poisson would be
	// ~1; the VM/cache amplification of §12 pushes it far higher).
	Dispersion1s  float64
	Dispersion10s float64
	// MaxPerSecond is the largest 1-second paging burst.
	MaxPerSecond float64
	// LazyShare and ReadAheadShare decompose the paging stream.
	LazyShare      float64
	ReadAheadShare float64
}

// PagingBursts analyses the paging I/O arrival process of one machine.
func PagingBursts(mt *MachineTrace) PagingBurst {
	t := mt.tab
	var lazy, ra int
	sel := mt.Index().Select( // the Kind.IsPaging set
		tracefmt.EvPagingRead, tracefmt.EvPagingWrite,
		tracefmt.EvReadAhead, tracefmt.EvLazyWrite)
	times := make([]sim.Time, 0, len(sel))
	for _, i := range sel {
		times = append(times, t.Starts[i])
		switch t.Kinds[i] {
		case tracefmt.EvLazyWrite:
			lazy++
		case tracefmt.EvReadAhead:
			ra++
		}
	}
	pb := PagingBurst{Requests: len(times)}
	if len(times) < 2 {
		return pb
	}
	// times is ascending: index positions are stream positions and the
	// stream is sorted by start time.
	gaps := make([]float64, len(times)-1)
	for i := 1; i < len(times); i++ {
		gaps[i-1] = times[i].Sub(times[i-1]).Seconds()
	}
	c1 := stats.BinCounts(gaps, 1)
	c10 := stats.BinCounts(gaps, 10)
	pb.Dispersion1s = stats.IndexOfDispersion(c1)
	pb.Dispersion10s = stats.IndexOfDispersion(c10)
	pb.MaxPerSecond = stats.Summarize(c1).Max
	pb.LazyShare = float64(lazy) / float64(len(times))
	pb.ReadAheadShare = float64(ra) / float64(len(times))
	return pb
}

// CompressedReads splits non-cached read latencies (µs) by the NTFS
// compression attribute — the "reads from compressed large files"
// follow-up. Only disk-bound reads are compared (cache hits cost the same
// either way).
func CompressedReads(mt *MachineTrace) (compressed, plain []float64) {
	t := mt.tab
	for _, i := range mt.Index().OfKind(tracefmt.EvRead) {
		if t.Statuses[i].IsError() {
			continue
		}
		if t.Annots[i]&tracefmt.AnnotFromCache != 0 {
			continue
		}
		if t.Attributes[i].Has(types.AttrCompressed) {
			compressed = append(compressed, t.Ends[i].Sub(t.Starts[i]).Microseconds())
		} else {
			plain = append(plain, t.Ends[i].Sub(t.Starts[i]).Microseconds())
		}
	}
	return compressed, plain
}

// DirOpStats summarises directory-operation throughput — the third
// follow-up trace.
type DirOpStats struct {
	Queries int
	// LatencyP50/P90 of query-directory service (µs).
	LatencyP50, LatencyP90 float64
	// PeakPerSecond is the busiest 1-second rate observed.
	PeakPerSecond float64
	// EntriesP50 is the median directory size enumerated.
	EntriesP50 float64
}

// DirectoryThroughput analyses directory-control operations.
func DirectoryThroughput(mt *MachineTrace) DirOpStats {
	t := mt.tab
	var lats, entries []float64
	var times []sim.Time
	for _, i := range mt.Index().OfKind(tracefmt.EvQueryDirectory) {
		if t.Statuses[i].IsError() {
			continue
		}
		lats = append(lats, t.Ends[i].Sub(t.Starts[i]).Microseconds())
		entries = append(entries, float64(t.Returns[i]))
		times = append(times, t.Starts[i])
	}
	ds := DirOpStats{Queries: len(lats)}
	if len(lats) == 0 {
		return ds
	}
	ls := stats.Summarize(lats)
	ds.LatencyP50, ds.LatencyP90 = ls.P50, ls.P90
	ds.EntriesP50 = stats.Summarize(entries).P50
	gaps := make([]float64, 0, len(times)-1) // times already ascending

	for i := 1; i < len(times); i++ {
		gaps = append(gaps, times[i].Sub(times[i-1]).Seconds())
	}
	if len(gaps) > 0 {
		ds.PeakPerSecond = stats.Summarize(stats.BinCounts(gaps, 1)).Max
	}
	return ds
}
