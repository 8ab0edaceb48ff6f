package repro

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/collect"
	"repro/internal/colstore"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/tracefmt"
)

// benchBlockRecords sizes columnar blocks so the 45-machine benchmark
// corpus (~35K records per machine) spans several blocks per segment —
// the regime where zone maps have something to skip. The default 64K
// blocks would hold each of these machines in one block.
const benchBlockRecords = 4096

// fleetRecords decodes the shared fleet corpus once, per machine.
var (
	fleetRecsOnce sync.Once
	fleetRecs     map[string][]tracefmt.Record
)

func fleetRecords(b *testing.B) map[string][]tracefmt.Record {
	b.Helper()
	s := fleetCorpus(b)
	fleetRecsOnce.Do(func() {
		fleetRecs = map[string][]tracefmt.Record{}
		for _, m := range s.Store.Machines() {
			recs, err := s.Store.Records(m)
			if err != nil {
				if errors.Is(err, collect.ErrNoRecords) {
					continue
				}
				panic(err)
			}
			fleetRecs[m] = recs
		}
	})
	return fleetRecs
}

// BenchmarkColumnarEncode measures columnar encoding of the 45-machine
// corpus and pins the acceptance bound: the columnar segments must not
// exceed the DEFLATE row corpus they replace.
func BenchmarkColumnarEncode(b *testing.B) {
	s := fleetCorpus(b)
	recs := fleetRecords(b)
	var rows int
	for _, r := range recs {
		rows += len(r)
	}
	b.SetBytes(int64(rows) * int64(tracefmt.RecordSize))
	var colBytes int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		colBytes = 0
		for _, r := range recs {
			data, _, err := colstore.EncodeSegment(r, colstore.Options{BlockRecords: benchBlockRecords})
			if err != nil {
				b.Fatal(err)
			}
			colBytes += int64(len(data))
		}
	}
	b.StopTimer()
	rowBytes := s.Store.CompressedBytes()
	if colBytes > rowBytes {
		b.Fatalf("columnar corpus %d bytes exceeds DEFLATE row corpus %d bytes", colBytes, rowBytes)
	}
	b.ReportMetric(float64(rows), "records")
	b.ReportMetric(float64(colBytes)/1024, "columnar_KB")
	b.ReportMetric(float64(rowBytes)/1024, "row_deflate_KB")
}

// columnar segment fixture, encoded once from the fleet corpus.
var (
	colSegsOnce  sync.Once
	colSegsBytes map[string][]byte
	colSegsTotal int64
)

func columnarSegments(b *testing.B) (map[string][]byte, int64) {
	b.Helper()
	recs := fleetRecords(b)
	colSegsOnce.Do(func() {
		colSegsBytes = map[string][]byte{}
		for m, r := range recs {
			data, _, err := colstore.EncodeSegment(r, colstore.Options{BlockRecords: benchBlockRecords})
			if err != nil {
				panic(err)
			}
			colSegsBytes[m] = data
			colSegsTotal += int64(len(data))
		}
	})
	return colSegsBytes, colSegsTotal
}

// BenchmarkColumnarScan measures predicate-pushdown scans over the
// 45-machine columnar corpus and asserts the pushdown actually fired:
// zone maps skip blocks (obs counter > 0) and the kind-filtered
// two-column scan decodes measurably fewer bytes than the corpus holds.
func BenchmarkColumnarScan(b *testing.B) {
	raw, total := columnarSegments(b)

	scan := func(b *testing.B, pred colstore.Predicate, cols colstore.ColumnSet, wantSkips bool) {
		b.Helper()
		reg := obs.NewRegistry()
		m := colstore.NewMetrics(reg)
		segs := make([]*colstore.Segment, 0, len(raw))
		for _, data := range raw {
			seg, err := colstore.OpenSegment(data, m)
			if err != nil {
				b.Fatal(err)
			}
			segs = append(segs, seg)
		}
		var matched int
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			matched = 0
			for _, seg := range segs {
				batch, err := seg.ScanColumns(pred, cols)
				if err != nil {
					b.Fatal(err)
				}
				matched += batch.N
			}
		}
		b.StopTimer()
		iters := float64(b.N)
		scanned, skipped := m.BlocksScanned.Value(), m.BlocksSkipped.Value()
		if wantSkips && skipped == 0 {
			b.Fatalf("zone maps skipped no blocks (%d scanned)", scanned)
		}
		decodedPerOp := float64(m.TotalBytesDecoded()) / iters
		if decodedPerOp*2 >= float64(total) {
			b.Fatalf("pushdown decoded %.0f of %d corpus bytes per scan — projection is not saving work", decodedPerOp, total)
		}
		b.ReportMetric(float64(matched), "matched_records")
		b.ReportMetric(float64(scanned)/iters, "blocks_scanned")
		b.ReportMetric(float64(skipped)/iters, "blocks_skipped")
		b.ReportMetric(decodedPerOp/1024, "decoded_KB")
		b.ReportMetric(float64(total)/1024, "corpus_KB")
	}

	// Rare kinds (flushes, byte-range locks): most blocks lack them
	// entirely, so the kind bitmap eliminates blocks wholesale and the
	// survivors decode only the kind + two requested columns.
	b.Run("kind-filtered-two-col", func(b *testing.B) {
		scan(b, colstore.Predicate{
			Kinds: []tracefmt.EventKind{tracefmt.EvFlushBuffers, tracefmt.EvLock},
		}, colstore.ScanStart|colstore.ScanLength, true)
	})

	// A one-minute window of the 15-minute trace: min/max-start zone
	// maps skip the blocks outside it.
	b.Run("time-window", func(b *testing.B) {
		scan(b, colstore.Predicate{
			MinStart: sim.Time(5 * sim.Minute),
			MaxStart: sim.Time(6 * sim.Minute),
		}, colstore.ScanKind|colstore.ScanStart, true)
	})

	// Baseline: full materialization through ScanRecords, no predicate —
	// the row-equivalent cost the filtered scans are measured against.
	b.Run("full-read", func(b *testing.B) {
		reg := obs.NewRegistry()
		m := colstore.NewMetrics(reg)
		segs := make([]*colstore.Segment, 0, len(raw))
		for _, data := range raw {
			seg, err := colstore.OpenSegment(data, m)
			if err != nil {
				b.Fatal(err)
			}
			segs = append(segs, seg)
		}
		var rows int
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rows = 0
			for _, seg := range segs {
				recs, err := seg.ReadAll()
				if err != nil {
					b.Fatal(err)
				}
				rows += len(recs)
			}
		}
		b.ReportMetric(float64(rows), "records")
	})
}

// compute fixture: the scan-optimized (NoCompress) layout — dictionary,
// varint and delta encodings without the per-column DEFLATE wrapper.
// This is the layout a scan-bound deployment chooses: block decodes are
// allocation-free and skip the Huffman work entirely, trading encoded
// size (reported as corpus_KB) for scan throughput.
var (
	colSegsScanOnce  sync.Once
	colSegsScanBytes map[string][]byte
	colSegsScanTotal int64
)

func columnarSegmentsScanOptimized(b *testing.B) (map[string][]byte, int64) {
	b.Helper()
	recs := fleetRecords(b)
	colSegsScanOnce.Do(func() {
		colSegsScanBytes = map[string][]byte{}
		for m, r := range recs {
			data, _, err := colstore.EncodeSegment(r, colstore.Options{BlockRecords: benchBlockRecords, NoCompress: true})
			if err != nil {
				panic(err)
			}
			colSegsScanBytes[m] = data
			colSegsScanTotal += int64(len(data))
		}
	})
	return colSegsScanBytes, colSegsScanTotal
}

// BenchmarkColumnarCompute measures the segment-to-figures path: open
// segments once, then per iteration batch-scan the numeric columns into
// fresh traces and fold every figure's kernel straight off the column
// vectors — no row materialization anywhere. The segments use the
// scan-optimized (NoCompress) layout; corpus_KB reports what that trade
// costs on disk. The decode ledger rides along: the numeric kernel
// scans never inflate the name column (only the per-machine name-map
// scan touches it), and steady-state scans run from the warm scratch
// pool.
func BenchmarkColumnarCompute(b *testing.B) {
	raw, total := columnarSegmentsScanOptimized(b)
	s := fleetCorpus(b)
	base, err := s.DataSetWorkers(8)
	if err != nil {
		b.Fatal(err)
	}

	for _, workers := range []int{1, 4, 8} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			reg := obs.NewRegistry()
			m := colstore.NewMetrics(reg)
			segs := make([]*colstore.Segment, len(base.Machines))
			for i, mt := range base.Machines {
				seg, err := colstore.OpenSegment(raw[mt.Name], m)
				if err != nil {
					b.Fatal(err)
				}
				segs[i] = seg
			}
			var instances int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ds := &analysis.DataSet{}
				for j, mt := range base.Machines {
					fresh, err := analysis.NewMachineTraceColumnar(mt.Name, mt.Category, segs[j], nil)
					if err != nil {
						b.Fatal(err)
					}
					fresh.ProcNames = mt.ProcNames
					ds.Machines = append(ds.Machines, fresh)
				}
				r := report.ComputeWorkers(ds, workers)
				instances = len(r.All)
			}
			b.StopTimer()
			iters := float64(b.N)
			colMS := float64(b.Elapsed().Microseconds()) / 1e3 / iters
			b.ReportMetric(float64(instances), "instances")
			b.ReportMetric(colMS, "columnar_ms")
			b.ReportMetric(float64(m.TotalBytesDecoded())/iters/1024, "decoded_KB")
			// The name family is touched only by the per-machine name-map
			// scan (EvNameMap-predicated); the numeric kernel scans never
			// inflate it.
			b.ReportMetric(float64(m.BytesDecoded(colstore.FamilyName))/iters/1024, "name_decoded_KB")
			b.ReportMetric(float64(total)/1024, "corpus_KB")
			b.ReportMetric(float64(m.BatchesReused.Value())/iters, "batches_reused")
		})
	}
}
