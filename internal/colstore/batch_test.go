package colstore

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/tracefmt"
)

// TestBlockScannerZeroAllocSteadyState pins the Batch reuse contract:
// once the batch and the segment's pooled decode scratch are warm, a
// full streaming scan — every block, every column including names —
// performs zero allocations per block. This is the property that lets
// the vectorized compute path iterate a corpus block-at-a-time without
// generating garbage proportional to corpus size.
//
// The exact-zero assertion runs on a NoCompress segment, because the
// one allocation the scratch pool cannot absorb lives inside stdlib
// flate: its decompressor rebuilds Huffman link tables on every dynamic
// block. The default (flated) layout is pinned separately to a small
// per-block constant, so a per-row or per-column buffer leak still
// fails the test there.
func TestBlockScannerZeroAllocSteadyState(t *testing.T) {
	recs := genRecords(20000, 9)
	const blockRecords = 1024

	mkScan := func(seg *Segment, b *Batch) func(ColumnSet) int {
		return func(cols ColumnSet) int {
			blocks := 0
			it := seg.Batches(Predicate{}, cols)
			for {
				b.Reset()
				ok, err := it.Next(b)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					return blocks
				}
				blocks++
			}
		}
	}

	projections := []struct {
		name string
		cols ColumnSet
	}{
		{"all-numeric", ScanAllNumeric},
		{"with-names", ScanAllNumeric | ScanName},
		{"narrow", ScanKind | ScanStart | ScanLength},
	}

	t.Run("no-compress", func(t *testing.T) {
		data, _, err := EncodeSegment(recs, Options{BlockRecords: blockRecords, NoCompress: true})
		if err != nil {
			t.Fatal(err)
		}
		seg, err := OpenSegment(data, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := seg.VerifySHA(); err != nil {
			t.Fatal(err)
		}
		scan := mkScan(seg, &Batch{})
		for _, tc := range projections {
			t.Run(tc.name, func(t *testing.T) {
				// Warm pass grows the batch and scratch capacities.
				if blocks := scan(tc.cols); blocks == 0 {
					t.Fatal("scan visited no blocks")
				}
				avg := testing.AllocsPerRun(10, func() { scan(tc.cols) })
				if avg != 0 {
					t.Errorf("steady-state scan allocates %.1f times per pass, want 0", avg)
				}
			})
		}
	})

	t.Run("flated", func(t *testing.T) {
		data, _, err := EncodeSegment(recs, Options{BlockRecords: blockRecords})
		if err != nil {
			t.Fatal(err)
		}
		seg, err := OpenSegment(data, nil)
		if err != nil {
			t.Fatal(err)
		}
		scan := mkScan(seg, &Batch{})
		blocks := scan(ScanAllNumeric | ScanName)
		if blocks == 0 {
			t.Fatal("scan visited no blocks")
		}
		avg := testing.AllocsPerRun(10, func() { scan(ScanAllNumeric | ScanName) })
		// Flate's Huffman tables cost a few hundred allocations per
		// block at most; a leak per row (1024 rows/block) or per byte
		// blows well past this bound.
		if perBlock := avg / float64(blocks); perBlock > 600 {
			t.Errorf("steady-state scan allocates %.1f times per block, want flate-table-only (<= 600)", perBlock)
		}
	})
}

// TestScanReusesPooledScratch pins the scratch pool's observable effect:
// after the first scan of a segment primes the pool, every further scan
// checks the warm scratch back out, and the batches-reused counter says
// so.
func TestScanReusesPooledScratch(t *testing.T) {
	recs := genRecords(5000, 13)
	data, _, err := EncodeSegment(recs, Options{BlockRecords: 1024})
	if err != nil {
		t.Fatal(err)
	}
	m := NewMetrics(obs.NewRegistry())
	seg, err := OpenSegment(data, m)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := seg.ScanColumns(Predicate{}, ScanAllNumeric); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.BatchesReused.Value(); got != 2 {
		t.Errorf("batches reused = %d after 3 scans, want 2 (first scan allocates)", got)
	}
}

// TestNameDecodeSkippedWithoutScanName asserts the pushdown ledger for
// the widest kernel projection: a ScanAllNumeric scan of a segment that
// holds name blobs must not inflate a single name byte — the name
// family's decoded-bytes and columns-decoded counters stay at zero —
// while the numeric families account real work. Requesting ScanName
// flips the name family on.
func TestNameDecodeSkippedWithoutScanName(t *testing.T) {
	recs := genRecords(8000, 11) // genRecords names ~5% of records
	named := 0
	for i := range recs {
		if recs[i].Kind == tracefmt.EvNameMap {
			named++
		}
	}
	if named == 0 {
		t.Fatal("fixture has no named records")
	}
	data, _, err := EncodeSegment(recs, Options{BlockRecords: 1024})
	if err != nil {
		t.Fatal(err)
	}
	m := NewMetrics(obs.NewRegistry())
	seg, err := OpenSegment(data, m)
	if err != nil {
		t.Fatal(err)
	}

	batch, err := seg.ScanColumns(Predicate{}, ScanAllNumeric)
	if err != nil {
		t.Fatal(err)
	}
	if batch.N != len(recs) {
		t.Fatalf("scan matched %d records, want %d", batch.N, len(recs))
	}
	if got := m.BytesDecoded(FamilyName); got != 0 {
		t.Errorf("numeric-only scan decoded %d name bytes, want 0", got)
	}
	if got := m.ColumnsDecoded(FamilyName); got != 0 {
		t.Errorf("numeric-only scan decoded the name column %d times, want 0", got)
	}
	for _, f := range []Family{FamilyMeta, FamilyIDs, FamilyIO, FamilyTime} {
		if m.BytesDecoded(f) == 0 || m.ColumnsDecoded(f) == 0 {
			t.Errorf("family %s shows no decode work for a full numeric scan", f)
		}
	}

	if _, err := seg.ScanColumns(Predicate{}, ScanAllNumeric|ScanName); err != nil {
		t.Fatal(err)
	}
	if m.BytesDecoded(FamilyName) == 0 || m.ColumnsDecoded(FamilyName) == 0 {
		t.Error("ScanName projection left the name-family ledger at zero")
	}
}

// TestAppendRecordsRoundTrip pins the row ↔ column mapping a batch
// owns: AppendRecords fills the numeric columns exactly as an unfiltered
// scan of the same stream does, and Records rebuilds every record whole,
// directly and after Permuted, with the sparse names kept ascending. The
// fixture must set every Record field somewhere, so a field added to
// Record fails here until both directions carry it.
func TestAppendRecordsRoundTrip(t *testing.T) {
	recs := genRecords(5000, 23)
	for i := 0; i < len(recs); i += 11 {
		// Names ride on any kind, not only on EvNameMap records.
		recs[i].SetName(fmt.Sprintf(`C:\other\%d`, i))
	}
	rt := reflect.TypeOf(tracefmt.Record{})
	for f := 0; f < rt.NumField(); f++ {
		set := false
		for i := range recs {
			if !reflect.ValueOf(recs[i]).Field(f).IsZero() {
				set = true
				break
			}
		}
		if !set {
			t.Fatalf("fixture never sets Record.%s", rt.Field(f).Name)
		}
	}

	b := &Batch{}
	b.AppendRecords(recs[:1234])
	b.AppendRecords(recs[1234:])

	data, _, err := EncodeSegment(recs, Options{BlockRecords: 1024})
	if err != nil {
		t.Fatal(err)
	}
	seg, err := OpenSegment(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	scanned, err := seg.ScanColumns(Predicate{}, ScanAllNumeric)
	if err != nil {
		t.Fatal(err)
	}
	numeric := *b
	numeric.Majors, numeric.Minors, numeric.InfoClasses, numeric.NameRows, numeric.NameBlobs = nil, nil, nil, nil, nil
	if !reflect.DeepEqual(&numeric, scanned) {
		t.Fatal("AppendRecords columns differ from a ScanAllNumeric scan of the same stream")
	}

	if !slices.Equal(b.Records(), recs) {
		t.Fatal("Records is not the inverse of AppendRecords")
	}
	if !slices.Equal(b.Permuted(nil).Records(), recs) {
		t.Fatal("Permuted(nil) changed the records")
	}
	rng := sim.NewRNG(5)
	perm := make([]int32, len(recs))
	for i := range perm {
		perm[i] = int32(i)
	}
	for i := len(perm) - 1; i > 0; i-- {
		j := rng.Int63n(int64(i + 1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	want := make([]tracefmt.Record, len(recs))
	for i, p := range perm {
		want[i] = recs[p]
	}
	pb := b.Permuted(perm)
	if !slices.Equal(pb.Records(), want) {
		t.Fatal("Permuted(perm).Records() is not the permuted stream")
	}
	if !slices.IsSorted(pb.NameRows) {
		t.Fatal("Permuted left the sparse name rows out of order")
	}
}
