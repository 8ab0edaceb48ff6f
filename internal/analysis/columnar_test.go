package analysis

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/colstore"
	"repro/internal/ntos/machine"
	"repro/internal/ntos/types"
	"repro/internal/sim"
	"repro/internal/tracefmt"
)

// TestColumnarTraceEquivalence pins that the records constructor and
// the segment constructor build the same trace from one stream: the same
// sorted column table, per-kind index and open-time series, the same
// name map (a later name record wins), and the same Rows() — including
// the stable tie-break among records sharing a start timestamp — on an
// unsorted stream and on an already-sorted one.
func TestColumnarTraceEquivalence(t *testing.T) {
	rng := sim.NewRNG(77)
	recs := make([]tracefmt.Record, 15000)
	for i := range recs {
		r := &recs[i]
		r.Kind = tracefmt.EventKind(rng.Int63n(int64(tracefmt.NumEventKinds)))
		// Coarse timestamps force ties, exercising sort stability.
		r.Start = sim.Time(rng.Int63n(500) * 1000)
		r.End = r.Start + sim.Time(rng.Int63n(100))
		r.FileID = types.FileObjectID(1 + i%97)
		r.Length = int32(i)
		r.Major = types.MajorFunction(rng.Int63n(28))
		r.Minor = types.MinorFunction(rng.Int63n(8))
		r.InfoClass = types.SetInfoClass(rng.Int63n(40))
		if r.Kind == tracefmt.EvNameMap || i%13 == 0 {
			// Each id is named many times over; only the last name in
			// by-start stable order may survive. Names on other kinds
			// stay out of the map but must survive Rows().
			r.SetName(fmt.Sprintf(`C:\dir\file-%d.txt`, i))
		}
	}
	sorted := slices.Clone(recs)
	sort.SliceStable(sorted, func(a, b int) bool { return sorted[a].Start < sorted[b].Start })

	for _, tc := range []struct {
		name string
		recs []tracefmt.Record
	}{{"unsorted", recs}, {"sorted", sorted}} {
		t.Run(tc.name, func(t *testing.T) {
			data, _, err := colstore.EncodeSegment(tc.recs, colstore.Options{BlockRecords: 1024})
			if err != nil {
				t.Fatal(err)
			}
			seg, err := colstore.OpenSegment(data, nil)
			if err != nil {
				t.Fatal(err)
			}
			row := NewMachineTrace("m", machine.Personal, slices.Clone(tc.recs))
			col, err := NewMachineTraceColumnar("m", machine.Personal, seg, nil)
			if err != nil {
				t.Fatal(err)
			}
			if (col.perm == nil) != (tc.name == "sorted") {
				t.Fatalf("permutation present = %v on the %s stream", col.perm != nil, tc.name)
			}

			// The records constructor's table also holds the rest of each
			// record; its numeric columns must equal the segment's.
			numeric := *row.tab
			numeric.Majors, numeric.Minors, numeric.InfoClasses, numeric.NameRows, numeric.NameBlobs = nil, nil, nil, nil, nil
			if !reflect.DeepEqual(&numeric, col.tab) {
				t.Fatal("column tables differ")
			}
			rix, cix := row.Index(), col.Index()
			for k := 0; k < tracefmt.NumEventKinds; k++ {
				if !slices.Equal(rix.OfKind(tracefmt.EventKind(k)), cix.OfKind(tracefmt.EventKind(k))) {
					t.Fatalf("kind %d: index positions differ", k)
				}
			}
			if !slices.Equal(rix.OpenTimes(), cix.OpenTimes()) {
				t.Fatal("open times differ")
			}

			wantNames := map[types.FileObjectID]string{}
			for i := range sorted {
				if sorted[i].Kind == tracefmt.EvNameMap {
					wantNames[sorted[i].FileID] = sorted[i].NameString()
				}
			}
			if !reflect.DeepEqual(row.Names(), wantNames) || !reflect.DeepEqual(col.Names(), wantNames) {
				t.Fatal("name maps differ from the later-record-wins map of the sorted stream")
			}

			if !slices.Equal(mustRows(t, row), sorted) {
				t.Fatal("records constructor: Rows() is not the stable by-start sort")
			}
			if !slices.Equal(mustRows(t, col), sorted) {
				t.Fatal("segment constructor: Rows() is not the stable by-start sort")
			}
		})
	}
}

// TestRowsCorruptMajorColumn pins that a segment whose IRP major column
// cannot be decoded, but whose blocks pass their CRCs, loads (the load
// scan never decodes that column) and then makes Rows return an error,
// every time it is asked, instead of panicking in replay or synthesis.
func TestRowsCorruptMajorColumn(t *testing.T) {
	recs := make([]tracefmt.Record, 64)
	for i := range recs {
		recs[i] = tracefmt.Record{Kind: tracefmt.EvRead, Start: sim.Time(i), FileID: types.FileObjectID(1 + i%4), Major: types.MajorFunction(i % 5)}
	}
	data, _, err := colstore.EncodeSegment(recs, colstore.Options{BlockRecords: 16})
	if err != nil {
		t.Fatal(err)
	}
	setColumnEncoding(t, data, colstore.ColMajor, 3) // encNameSparse, names only
	seg, err := colstore.OpenSegment(data, nil)
	if err != nil {
		t.Fatalf("corrupted segment no longer opens: %v", err)
	}
	mt, err := NewMachineTraceColumnar("m", machine.Personal, seg, nil)
	if err != nil {
		t.Fatalf("load scan decoded the major column: %v", err)
	}
	for i := 0; i < 2; i++ {
		rows, err := mt.Rows()
		if err == nil || !strings.Contains(err.Error(), "major") {
			t.Fatalf("Rows call %d: %d rows, err = %v, want an error naming the major column", i+1, len(rows), err)
		}
	}
}

// setColumnEncoding rewrites the encoding tag of column c in every block
// of a segment, keeping its flate bit, and re-seals each block's footer
// CRC so the damage passes every integrity check short of decoding c.
func setColumnEncoding(t *testing.T, data []byte, c colstore.Column, enc byte) {
	t.Helper()
	le := binary.LittleEndian
	magic := len(colstore.Magic)
	footLen := int(le.Uint32(data[len(data)-magic-4:]))
	foot := data[len(data)-magic-4-footLen:]
	const fixed, metaSize = 4 + 8 + 4 + 32, 44
	blocks := int(le.Uint32(foot[12:]))
	for b := 0; b < blocks; b++ {
		meta := foot[fixed+b*metaSize:]
		off, n := le.Uint64(meta), le.Uint32(meta[8:])
		raw := data[off : off+uint64(n)]
		col := raw[4:]
		for i := 0; i < colstore.NumColumns; i++ {
			plen := int(le.Uint32(col[1:]))
			if colstore.Column(i) == c {
				col[0] = col[0]&0x80 | enc
			}
			col = col[5+plen:]
		}
		le.PutUint32(meta[40:], crc32.ChecksumIEEE(raw))
	}
}

// TestColumnarKernelHotPathAllocs pins the steady-state allocation
// behaviour of the vectorized kernel hot paths: once the trace's lazy
// views are warm, a kernel pass over the column vectors allocates only
// the small constant the index merge costs — nothing per record. A
// per-record allocation on this 15,000-record fixture would blow the
// bound by three orders of magnitude.
func TestColumnarKernelHotPathAllocs(t *testing.T) {
	rng := sim.NewRNG(41)
	kinds := []tracefmt.EventKind{
		tracefmt.EvRead, tracefmt.EvWrite, tracefmt.EvFastRead,
		tracefmt.EvFastWrite, tracefmt.EvCreate, tracefmt.EvClose,
	}
	recs := make([]tracefmt.Record, 15000)
	for i := range recs {
		recs[i].Kind = kinds[rng.Int63n(int64(len(kinds)))]
		recs[i].Start = sim.Time(rng.Int63n(1e9))
		recs[i].End = recs[i].Start + sim.Time(rng.Int63n(1e6))
		recs[i].FileID = types.FileObjectID(1 + i%53)
		recs[i].Length = int32(rng.Int63n(1 << 16))
	}
	data, _, err := colstore.EncodeSegment(recs, colstore.Options{BlockRecords: 1024})
	if err != nil {
		t.Fatal(err)
	}
	seg, err := colstore.OpenSegment(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	mt, err := NewMachineTraceColumnar("m", machine.Personal, seg, nil)
	if err != nil {
		t.Fatal(err)
	}
	mt.Index() // warm the lazy per-kind index

	passes := map[string]func(){
		"fastio-shares": func() { FastIOShares(mt) },
		"controls":      func() { Controls(mt, nil) },
	}
	for name, pass := range passes {
		pass() // warm
		if avg := testing.AllocsPerRun(20, pass); avg > 8 {
			t.Errorf("%s: %.1f allocs per pass, want the index-merge constant (<= 8)", name, avg)
		}
	}
}
