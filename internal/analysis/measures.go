package analysis

import (
	"sort"

	"repro/internal/ntos/types"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tracefmt"
)

// --- Table 3: access patterns -------------------------------------------

// PatternCell is one (class, pattern) cell: share of accesses and bytes.
type PatternCell struct {
	Accesses float64 // % of the class's sessions
	Bytes    float64 // % of the class's bytes
}

// PatternTable is the Table 3 matrix for one machine (or aggregated).
type PatternTable struct {
	// Share of data sessions / bytes per access class (the "File Usage"
	// columns).
	ClassAccesses map[AccessClass]float64
	ClassBytes    map[AccessClass]float64
	// Cells[class][pattern] is the "Type of transfer" split within class.
	Cells map[AccessClass]map[Pattern]PatternCell
}

// AccessPatterns computes the Table 3 matrix over instances (data
// sessions only, successful opens).
func AccessPatterns(ins []*Instance) PatternTable {
	t := PatternTable{
		ClassAccesses: map[AccessClass]float64{},
		ClassBytes:    map[AccessClass]float64{},
		Cells:         map[AccessClass]map[Pattern]PatternCell{},
	}
	type agg struct {
		n     int
		bytes int64
	}
	classes := map[AccessClass]*agg{}
	cells := map[AccessClass]map[Pattern]*agg{}
	totalN, totalB := 0, int64(0)
	for _, in := range ins {
		if in.Failed || !in.IsDataSession() {
			continue
		}
		c := classes[in.Class]
		if c == nil {
			c = &agg{}
			classes[in.Class] = c
			cells[in.Class] = map[Pattern]*agg{}
		}
		c.n++
		c.bytes += in.Bytes()
		cl := cells[in.Class][in.Pattern]
		if cl == nil {
			cl = &agg{}
			cells[in.Class][in.Pattern] = cl
		}
		cl.n++
		cl.bytes += in.Bytes()
		totalN++
		totalB += in.Bytes()
	}
	for class, a := range classes {
		if totalN > 0 {
			t.ClassAccesses[class] = 100 * float64(a.n) / float64(totalN)
		}
		if totalB > 0 {
			t.ClassBytes[class] = 100 * float64(a.bytes) / float64(totalB)
		}
		t.Cells[class] = map[Pattern]PatternCell{}
		for pat, ca := range cells[class] {
			cell := PatternCell{}
			if a.n > 0 {
				cell.Accesses = 100 * float64(ca.n) / float64(a.n)
			}
			if a.bytes > 0 {
				cell.Bytes = 100 * float64(ca.bytes) / float64(a.bytes)
			}
			t.Cells[class][pat] = cell
		}
	}
	return t
}

// --- Figures 1/2: sequential run lengths ---------------------------------

// RunLengths collects completed sequential run lengths across instances,
// split by read/write. Weighted-by-files uses each run once; weighted-by-
// bytes weights each run by its length (Figure 2).
func RunLengths(ins []*Instance) (readRuns, writeRuns []float64) {
	for _, in := range ins {
		for _, r := range in.ReadRuns {
			if r > 0 {
				readRuns = append(readRuns, float64(r))
			}
		}
		for _, w := range in.WriteRuns {
			if w > 0 {
				writeRuns = append(writeRuns, float64(w))
			}
		}
	}
	return readRuns, writeRuns
}

// --- Figures 3/4: file size distributions --------------------------------

// SizeSample pairs a file size with the bytes transferred against it.
type SizeSample struct {
	Size  float64
	Bytes float64
}

// FileSizeByClass returns, per access class, the file sizes of data
// sessions (for the opens-weighted CDF of Figure 3) with their transfer
// weights (for the bytes-weighted CDF of Figure 4).
func FileSizeByClass(ins []*Instance) map[AccessClass][]SizeSample {
	out := map[AccessClass][]SizeSample{}
	for _, in := range ins {
		if in.Failed || !in.IsDataSession() {
			continue
		}
		size := in.SizeAtClose
		if in.SizeAtOpen > size {
			size = in.SizeAtOpen
		}
		out[in.Class] = append(out[in.Class], SizeSample{
			Size:  float64(size),
			Bytes: float64(in.Bytes()),
		})
	}
	return out
}

// --- Figures 5/12: open times --------------------------------------------

// HoldTimes returns session hold times (ms) filtered by pred.
func HoldTimes(ins []*Instance, pred func(*Instance) bool) []float64 {
	var out []float64
	for _, in := range ins {
		if in.Failed || (pred != nil && !pred(in)) {
			continue
		}
		if ht := in.HoldTime(); ht >= 0 {
			out = append(out, ht.Milliseconds())
		}
	}
	return out
}

// DataSessions selects sessions that transferred data.
func DataSessions(in *Instance) bool { return in.IsDataSession() }

// ControlSessions selects control/directory-only sessions.
func ControlSessions(in *Instance) bool { return !in.IsDataSession() }

// LocalSessions selects local-volume sessions.
func LocalSessions(in *Instance) bool { return !in.Remote }

// RemoteSessions selects redirector sessions.
func RemoteSessions(in *Instance) bool { return in.Remote }

// And composes predicates.
func And(ps ...func(*Instance) bool) func(*Instance) bool {
	return func(in *Instance) bool {
		for _, p := range ps {
			if !p(in) {
				return false
			}
		}
		return true
	}
}

// --- Figure 11 / §8.1: open inter-arrivals -------------------------------

// OpenInterarrivals returns the gaps (ms) between successive open
// attempts on one machine, split into data-session opens and control-only
// opens (the two Figure 11 series). Failed opens count as control.
func OpenInterarrivals(ins []*Instance) (dataGaps, controlGaps []float64) {
	var dataT, ctlT []sim.Time
	for _, in := range ins {
		if !in.Failed && in.IsDataSession() {
			dataT = append(dataT, in.OpenTime)
		} else {
			ctlT = append(ctlT, in.OpenTime)
		}
	}
	gaps := func(ts []sim.Time) []float64 {
		sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
		var out []float64
		for i := 1; i < len(ts); i++ {
			out = append(out, ts[i].Sub(ts[i-1]).Milliseconds())
		}
		return out
	}
	return gaps(dataT), gaps(ctlT)
}

// OpenIntervalOccupancy returns the fraction of 1-second intervals,
// between the machine's first and last open request, that contain at
// least one open — §8.1's burstiness scalar ("only up to 24% of the
// 1-second intervals of a user's session have open requests recorded").
func OpenIntervalOccupancy(mt *MachineTrace) float64 {
	ts := mt.Index().OpenTimes() // ascending
	if len(ts) == 0 {
		return 0
	}
	lo := int64(ts[0]) / int64(sim.Second)
	hi := int64(ts[len(ts)-1]) / int64(sim.Second)
	if hi == lo {
		return 0
	}
	busy, prev := 0, lo-1
	for _, t := range ts {
		if s := int64(t) / int64(sim.Second); s != prev {
			busy++
			prev = s
		}
	}
	return float64(busy) / float64(hi-lo+1)
}

// AllOpenGaps returns inter-arrival gaps (seconds) of every open attempt —
// the Figure 8/9/10 sample series.
func AllOpenGaps(mt *MachineTrace) []float64 {
	ts := mt.Index().OpenTimes() // already ascending
	out := make([]float64, 0, len(ts))
	for i := 1; i < len(ts); i++ {
		out = append(out, ts[i].Sub(ts[i-1]).Seconds())
	}
	return out
}

// --- Figures 13/14: request latency and size by path ---------------------

// RequestClassSeries holds per-request-type samples for Figures 13/14.
type RequestClassSeries struct {
	FastReadLatUS, FastWriteLatUS []float64 // microseconds
	IrpReadLatUS, IrpWriteLatUS   []float64
	FastReadSize, FastWriteSize   []float64 // bytes requested
	IrpReadSize, IrpWriteSize     []float64
}

// RequestClasses extracts the four §10 request populations from raw
// records. IRP reads/writes include paging I/O — the requests a filter
// driver sees arriving over the packet path.
// requestPathKinds are the event kinds that traverse either the FastIO
// or the IRP packet path — the record population of RequestClasses and
// FastIOShares.
var requestPathKinds = []tracefmt.EventKind{
	tracefmt.EvFastRead, tracefmt.EvFastMdlRead,
	tracefmt.EvFastWrite, tracefmt.EvFastMdlWrite,
	tracefmt.EvRead, tracefmt.EvPagingRead, tracefmt.EvReadAhead,
	tracefmt.EvWrite, tracefmt.EvPagingWrite, tracefmt.EvLazyWrite,
}

func RequestClasses(mt *MachineTrace) RequestClassSeries {
	t := mt.tab
	var s RequestClassSeries
	for _, i := range mt.Index().Select(requestPathKinds...) {
		if t.Annots[i]&tracefmt.AnnotFastRefused != 0 || t.Statuses[i].IsError() {
			continue
		}
		lat := t.Ends[i].Sub(t.Starts[i]).Microseconds()
		size := float64(t.Lengths[i])
		switch t.Kinds[i] {
		case tracefmt.EvFastRead, tracefmt.EvFastMdlRead:
			s.FastReadLatUS = append(s.FastReadLatUS, lat)
			s.FastReadSize = append(s.FastReadSize, size)
		case tracefmt.EvFastWrite, tracefmt.EvFastMdlWrite:
			s.FastWriteLatUS = append(s.FastWriteLatUS, lat)
			s.FastWriteSize = append(s.FastWriteSize, size)
		case tracefmt.EvRead, tracefmt.EvPagingRead, tracefmt.EvReadAhead:
			s.IrpReadLatUS = append(s.IrpReadLatUS, lat)
			s.IrpReadSize = append(s.IrpReadSize, size)
		case tracefmt.EvWrite, tracefmt.EvPagingWrite, tracefmt.EvLazyWrite:
			s.IrpWriteLatUS = append(s.IrpWriteLatUS, lat)
			s.IrpWriteSize = append(s.IrpWriteSize, size)
		}
	}
	return s
}

// AppReadLatencies returns the latency samples (µs) of application-level
// reads only — FastIO vs non-paging IRP — for ablation comparisons where
// VM/cache paging traffic would blur the picture.
func AppReadLatencies(mt *MachineTrace) (fast, irp []float64) {
	t := mt.tab
	for _, i := range mt.Index().Select(tracefmt.EvFastRead, tracefmt.EvRead) {
		if t.Annots[i]&tracefmt.AnnotFastRefused != 0 || t.Statuses[i].IsError() {
			continue
		}
		switch t.Kinds[i] {
		case tracefmt.EvFastRead:
			fast = append(fast, t.Ends[i].Sub(t.Starts[i]).Microseconds())
		case tracefmt.EvRead:
			irp = append(irp, t.Ends[i].Sub(t.Starts[i]).Microseconds())
		}
	}
	return fast, irp
}

// CacheHitReadLatencies returns latency samples (µs) of reads satisfied
// entirely from the file cache, over either path. Because the work is
// identical (a cache copy), the distribution isolates the dispatch-path
// cost — the clean A/B for the §10 opaque-filter ablation, where run-level
// activity differences (heavy-tailed by construction) would otherwise
// dominate the comparison.
func CacheHitReadLatencies(mt *MachineTrace) []float64 {
	t := mt.tab
	var out []float64
	for _, i := range mt.Index().Select(tracefmt.EvFastRead, tracefmt.EvRead) {
		if t.Annots[i]&tracefmt.AnnotFastRefused != 0 || t.Statuses[i].IsError() {
			continue
		}
		if t.Annots[i]&tracefmt.AnnotFromCache == 0 {
			continue
		}
		switch t.Kinds[i] {
		case tracefmt.EvFastRead, tracefmt.EvRead:
			out = append(out, t.Ends[i].Sub(t.Starts[i]).Microseconds())
		}
	}
	return out
}

// FastIOShares returns the §10 headline shares: the fraction of read and
// write requests arriving over the FastIO path.
func FastIOShares(mt *MachineTrace) (readShare, writeShare float64) {
	t := mt.tab
	var fr, ir, fw, iw int
	for _, i := range mt.Index().Select(requestPathKinds...) {
		if t.Annots[i]&tracefmt.AnnotFastRefused != 0 {
			continue
		}
		switch t.Kinds[i] {
		case tracefmt.EvFastRead, tracefmt.EvFastMdlRead:
			fr++
		case tracefmt.EvRead, tracefmt.EvPagingRead, tracefmt.EvReadAhead:
			ir++
		case tracefmt.EvFastWrite, tracefmt.EvFastMdlWrite:
			fw++
		case tracefmt.EvWrite, tracefmt.EvPagingWrite, tracefmt.EvLazyWrite:
			iw++
		}
	}
	if fr+ir > 0 {
		readShare = float64(fr) / float64(fr+ir)
	}
	if fw+iw > 0 {
		writeShare = float64(fw) / float64(fw+iw)
	}
	return readShare, writeShare
}

// --- §8.3 / §8.4: controls and errors -------------------------------------

// ControlStats summarises §8.3/§8.4 behaviour.
type ControlStats struct {
	Opens            int
	FailedOpens      int
	ControlOnly      int // successful opens with no data transfer
	NotFoundErrors   int
	CollisionErrors  int
	ReadErrors       int
	Reads            int
	VolumeMountedOps int
	SetEndOfFileOps  int
}

// ControlFraction is the §8.3 headline: the share of opens performed for
// control or directory operations (including failed opens, which by
// definition never transfer data).
func (c ControlStats) ControlFraction() float64 {
	if c.Opens == 0 {
		return 0
	}
	return float64(c.ControlOnly+c.FailedOpens) / float64(c.Opens)
}

// FailureFraction is the §8.4 open failure rate.
func (c ControlStats) FailureFraction() float64 {
	if c.Opens == 0 {
		return 0
	}
	return float64(c.FailedOpens) / float64(c.Opens)
}

// ReadErrorFraction is the §8.4 read error rate (~0.2% in the paper).
func (c ControlStats) ReadErrorFraction() float64 {
	if c.Reads == 0 {
		return 0
	}
	return float64(c.ReadErrors) / float64(c.Reads)
}

// Controls computes ControlStats from instances plus raw records.
func Controls(mt *MachineTrace, ins []*Instance) ControlStats {
	var c ControlStats
	for _, in := range ins {
		c.Opens++
		if in.Failed {
			c.FailedOpens++
			switch in.FailStatus {
			case types.StatusObjectNameNotFound, types.StatusObjectPathNotFound:
				c.NotFoundErrors++
			case types.StatusObjectNameCollision:
				c.CollisionErrors++
			}
			continue
		}
		if !in.IsDataSession() {
			c.ControlOnly++
		}
	}
	t := mt.tab
	sel := mt.Index().Select(
		tracefmt.EvRead, tracefmt.EvFastRead,
		tracefmt.EvUserFsRequest, tracefmt.EvFastDeviceControl,
		tracefmt.EvSetEndOfFile)
	for _, i := range sel {
		switch t.Kinds[i] {
		case tracefmt.EvRead, tracefmt.EvFastRead:
			if t.Annots[i]&tracefmt.AnnotFastRefused != 0 {
				continue
			}
			c.Reads++
			if t.Statuses[i].IsError() {
				c.ReadErrors++
			}
		case tracefmt.EvUserFsRequest, tracefmt.EvFastDeviceControl:
			if t.FsControls[i] == types.FsctlIsVolumeMounted {
				c.VolumeMountedOps++
			}
		case tracefmt.EvSetEndOfFile:
			c.SetEndOfFileOps++
		}
	}
	return c
}

// --- §9: cache behaviour ---------------------------------------------------

// CacheMeasures summarises §9 from the trace.
type CacheMeasures struct {
	Reads          int
	ReadsFromCache int
	ReadSessions   int // open-for-read sessions with data
	// SinglePrefetch counts read sessions needing at most one read-ahead.
	SinglePrefetch int
	ReadAheadOps   int
	LazyWriteOps   int
	FlushOps       int
	WriteSessions  int
	// FlushPerWrite counts write sessions that flushed at least once per
	// write (the §9.2 "flush after each write" anti-pattern).
	FlushPerWrite int
	// CacheDisabledSessions counts data sessions opened with
	// no-intermediate-buffering.
	CacheDisabledSessions int
	DataSessions          int
}

// CacheHitFraction is the §9 headline (60% in the paper).
func (cm CacheMeasures) CacheHitFraction() float64 {
	if cm.Reads == 0 {
		return 0
	}
	return float64(cm.ReadsFromCache) / float64(cm.Reads)
}

// SinglePrefetchFraction is the §9.1 "in 92% of the open-for-read cases a
// single prefetch was sufficient" measure.
func (cm CacheMeasures) SinglePrefetchFraction() float64 {
	if cm.ReadSessions == 0 {
		return 0
	}
	return float64(cm.SinglePrefetch) / float64(cm.ReadSessions)
}

// Cache computes CacheMeasures. Read-ahead operations are attributed to
// the open session covering them on the same path.
func Cache(mt *MachineTrace, ins []*Instance) CacheMeasures {
	t := mt.tab
	var cm CacheMeasures
	// Index read-ahead events by path.
	ras := map[string][]sim.Time{}
	sel := mt.Index().Select(
		tracefmt.EvRead, tracefmt.EvFastRead, tracefmt.EvReadAhead,
		tracefmt.EvLazyWrite, tracefmt.EvFlushBuffers)
	for _, i := range sel {
		switch t.Kinds[i] {
		case tracefmt.EvRead, tracefmt.EvFastRead:
			if t.Annots[i]&tracefmt.AnnotFastRefused != 0 || t.Statuses[i].IsError() {
				continue
			}
			cm.Reads++
			if t.Annots[i]&tracefmt.AnnotFromCache != 0 {
				cm.ReadsFromCache++
			}
		case tracefmt.EvReadAhead:
			cm.ReadAheadOps++
			p := mt.PathOf(t.FileIDs[i])
			ras[p] = append(ras[p], t.Starts[i])
		case tracefmt.EvLazyWrite:
			cm.LazyWriteOps++
		case tracefmt.EvFlushBuffers:
			cm.FlushOps++
		}
	}
	for _, in := range ins {
		if in.Failed || !in.IsDataSession() {
			continue
		}
		cm.DataSessions++
		if in.FOFlags.Has(types.FONoIntermediateBuffering) {
			cm.CacheDisabledSessions++
		}
		if in.Reads > 0 {
			cm.ReadSessions++
			n := 0
			end := in.CloseTime
			if end == 0 {
				end = in.CleanupTime
			}
			for _, at := range ras[in.Path] {
				if at >= in.OpenTime && (end == 0 || at <= end) {
					n++
				}
			}
			if n <= 1 {
				cm.SinglePrefetch++
			}
		}
		if in.Writes > 0 {
			cm.WriteSessions++
			if in.FlushOps >= in.Writes && in.Writes > 0 {
				cm.FlushPerWrite++
			}
		}
	}
	return cm
}

// --- §8.1: reuse and the two-stage close ----------------------------------

// ReuseStats captures §8.1 file-reuse behaviour.
type ReuseStats struct {
	ReadOnlyPaths      int
	ReadOnlyReopened   int // opened read-only more than once
	WriteOnlyPaths     int
	WriteOnlyReWritten int // re-opened write-only
	WriteOnlyThenRead  int // later opened for reading
	ReadWritePaths     int
	ReadWriteReopened  int
}

// Reuse computes per-path reopen statistics.
func Reuse(ins []*Instance) ReuseStats {
	type counts struct{ ro, wo, rw int }
	byPath := map[string]*counts{}
	order := []string{}
	for _, in := range ins {
		if in.Failed || !in.IsDataSession() || in.Path == "" {
			continue
		}
		c := byPath[in.Path]
		if c == nil {
			c = &counts{}
			byPath[in.Path] = c
			order = append(order, in.Path)
		}
		switch in.Class {
		case AccessReadOnly:
			c.ro++
		case AccessWriteOnly:
			c.wo++
		case AccessReadWrite:
			c.rw++
		}
	}
	var rs ReuseStats
	for _, p := range order {
		c := byPath[p]
		if c.ro > 0 {
			rs.ReadOnlyPaths++
			if c.ro > 1 {
				rs.ReadOnlyReopened++
			}
		}
		if c.wo > 0 {
			rs.WriteOnlyPaths++
			if c.wo > 1 {
				rs.WriteOnlyReWritten++
			}
			if c.ro > 0 || c.rw > 0 {
				rs.WriteOnlyThenRead++
			}
		}
		if c.rw > 0 {
			rs.ReadWritePaths++
			if c.rw > 1 {
				rs.ReadWriteReopened++
			}
		}
	}
	return rs
}

// CleanupCloseGaps returns the §8.1 cleanup→close gaps (µs), split into
// read-cached and write-cached sessions.
func CleanupCloseGaps(ins []*Instance) (readGaps, writeGaps []float64) {
	for _, in := range ins {
		g := in.CleanupToClose()
		if g < 0 {
			continue
		}
		if in.Writes > 0 {
			writeGaps = append(writeGaps, g.Microseconds())
		} else if in.Reads > 0 {
			readGaps = append(readGaps, g.Microseconds())
		}
	}
	return readGaps, writeGaps
}

// --- Table 2: user activity -----------------------------------------------

// ActivityRow is one Table 2 panel (one interval width).
type ActivityRow struct {
	IntervalSeconds float64
	MaxActiveUsers  int
	AvgActiveUsers  float64
	AvgActiveStdev  float64
	// AvgThroughputKBs is the mean per-active-user throughput (KB/s),
	// with standard deviation; Peak the maximum observed.
	AvgThroughputKBs   float64
	ThroughputStdevKBs float64
	PeakUserKBs        float64
	PeakSystemKBs      float64
}

// activityKinds are the only kinds that contribute bytes to the Table 2
// throughput bins: data transfers and VM paging reads; every other kind
// fell through to `continue` in the pre-index scan.
var activityKinds = []tracefmt.EventKind{
	tracefmt.EvRead, tracefmt.EvWrite,
	tracefmt.EvFastRead, tracefmt.EvFastWrite,
	tracefmt.EvFastMdlRead, tracefmt.EvFastMdlWrite,
	tracefmt.EvPagingRead,
}

// UserActivity computes the Table 2 panels over the fleet. Throughput per
// user counts application-level data transfers plus VM paging for
// executables (following §3.3's accounting), excluding cache-manager
// duplicates. The activity threshold models the §6.1 background level.
// It is SweepActivity over each machine's ActivityBins, in corpus order.
func UserActivity(ds *DataSet, interval sim.Duration, thresholdBytes float64) ActivityRow {
	perMachine := make([][]float64, len(ds.Machines))
	for mi, mt := range ds.Machines {
		perMachine[mi] = ActivityBins(mt, interval)[0]
	}
	return SweepActivity(perMachine, interval, thresholdBytes)
}

// ActivityBins returns, for each interval width, the bytes one machine
// transferred in each interval: bins[w][i] covers
// [i·intervals[w], (i+1)·intervals[w]) and the last bin is the last one
// with traffic. One pass over the machine's activity records fills every
// width, adding each bin's bytes in record order.
func ActivityBins(mt *MachineTrace, intervals ...sim.Duration) [][]float64 {
	t := mt.tab
	bins := make([][]float64, len(intervals))
	for _, i := range mt.Index().Select(activityKinds...) {
		k := t.Kinds[i]
		if k.IsPaging() && t.FileIDs[i] >= tracefmt.PagingObjectIDBase {
			continue // cache-manager paging (IsCachePaging)
		}
		var bytes float64
		switch {
		case isDataTransfer(k, t.Annots[i], t.Statuses[i]):
			bytes = float64(t.Returns[i])
		case k == tracefmt.EvPagingRead:
			bytes = float64(t.Lengths[i])
		default:
			continue
		}
		for w, iv := range intervals {
			idx := int64(t.Starts[i]) / int64(iv)
			if idx < 0 {
				continue // before the sweep's first interval
			}
			for int64(len(bins[w])) <= idx {
				bins[w] = append(bins[w], 0)
			}
			bins[w][idx] += bytes
		}
	}
	return bins
}

// SweepActivity sweeps every interval from the first to the last any
// machine's bins reach, summing the machines' bytes in the order given:
// a machine whose bytes in an interval exceed thresholdBytes is an
// active user in it.
func SweepActivity(perMachine [][]float64, interval sim.Duration, thresholdBytes float64) ActivityRow {
	row := ActivityRow{IntervalSeconds: interval.Seconds()}
	intervals := 1
	for _, bins := range perMachine {
		intervals = max(intervals, len(bins))
	}
	var activeCounts, throughputs []float64
	for idx := 0; idx < intervals; idx++ {
		active := 0
		var sysBytes float64
		for _, bins := range perMachine {
			var b float64
			if idx < len(bins) {
				b = bins[idx]
			}
			sysBytes += b
			if b > thresholdBytes {
				active++
				kbs := b / 1024 / interval.Seconds()
				throughputs = append(throughputs, kbs)
				if kbs > row.PeakUserKBs {
					row.PeakUserKBs = kbs
				}
			}
		}
		sysKBs := sysBytes / 1024 / interval.Seconds()
		if sysKBs > row.PeakSystemKBs {
			row.PeakSystemKBs = sysKBs
		}
		if active > row.MaxActiveUsers {
			row.MaxActiveUsers = active
		}
		if active > 0 {
			activeCounts = append(activeCounts, float64(active))
		}
	}
	sa := stats.Summarize(activeCounts)
	row.AvgActiveUsers = sa.Mean
	row.AvgActiveStdev = sa.Stdev
	st := stats.Summarize(throughputs)
	row.AvgThroughputKBs = st.Mean
	row.ThroughputStdevKBs = st.Stdev
	return row
}
