package cachesim

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/ntos/machine"
	"repro/internal/ntos/types"
	"repro/internal/sim"
	"repro/internal/tracefmt"
)

// testPages numbers the (path, page) pairs the direct Touch tests use,
// in first-use order as Sweep would.
var testPages = map[Access]int32{}

func k(path string, page int64) int32 {
	a := Access{Path: path, Page: page}
	p, ok := testPages[a]
	if !ok {
		p = int32(len(testPages))
		testPages[a] = p
	}
	return p
}

func TestLRUBasics(t *testing.T) {
	c := NewLRU(2)
	if c.Touch(k("a", 0)) {
		t.Error("cold touch hit")
	}
	if !c.Touch(k("a", 0)) {
		t.Error("warm touch missed")
	}
	c.Touch(k("b", 0))
	c.Touch(k("c", 0)) // evicts a (LRU)
	if c.Touch(k("a", 0)) {
		t.Error("evicted page still resident")
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d", c.Len())
	}
}

func TestLRURecencyOrdering(t *testing.T) {
	c := NewLRU(2)
	c.Touch(k("a", 0))
	c.Touch(k("b", 0))
	c.Touch(k("a", 0)) // refresh a
	c.Touch(k("c", 0)) // must evict b, not a
	if !c.Touch(k("a", 0)) {
		t.Error("recently used page evicted")
	}
	if c.Touch(k("b", 0)) {
		t.Error("least recently used page survived")
	}
}

func TestFIFOIgnoresRecency(t *testing.T) {
	c := NewFIFO(2)
	c.Touch(k("a", 0))
	c.Touch(k("b", 0))
	c.Touch(k("a", 0)) // hit but no reordering
	c.Touch(k("c", 0)) // evicts a (first in)
	if c.Touch(k("a", 0)) {
		t.Error("FIFO kept the oldest page")
	}
}

func Test2QScanResistance(t *testing.T) {
	// A working set of hot pages plus a long single-touch scan: 2Q must
	// retain the hot set better than LRU at equal capacity.
	hot := make([]Access, 0)
	for i := 0; i < 8; i++ {
		hot = append(hot, Access{Path: "hot", Page: int64(i)})
	}
	var trace []Access
	for round := 0; round < 50; round++ {
		trace = append(trace, hot...)
		// Warm the hot set twice so 2Q promotes it.
		trace = append(trace, hot...)
		for j := 0; j < 64; j++ {
			trace = append(trace, Access{Path: fmt.Sprintf("scan%d", round), Page: int64(j)})
		}
	}
	lruRes := Run(trace, NewLRU, 32)
	twoQRes := Run(trace, New2Q, 32)
	if twoQRes.HitRatio <= lruRes.HitRatio {
		t.Errorf("2Q (%.3f) not better than LRU (%.3f) under scan flood",
			twoQRes.HitRatio, lruRes.HitRatio)
	}
}

func TestCapacityRespected(t *testing.T) {
	for _, build := range []func(int) Policy{NewLRU, NewFIFO, New2Q} {
		p := build(10)
		for i := 0; i < 1000; i++ {
			p.Touch(k("f", int64(i)))
		}
		if p.Len() > 10 {
			t.Errorf("%s exceeded capacity: %d", p.PolicyName(), p.Len())
		}
	}
}

func TestExtractReadsPageExpansion(t *testing.T) {
	var recs []tracefmt.Record
	nm := tracefmt.Record{Kind: tracefmt.EvNameMap, FileID: 1}
	nm.SetName(`C:\f`)
	recs = append(recs, nm)
	// 10000-byte read at offset 0: pages 0..2.
	recs = append(recs, tracefmt.Record{Kind: tracefmt.EvRead, FileID: 1,
		Returned: 10000, BytePos: 10000, Start: 1, End: 2})
	// Refused FastIO and failed reads are excluded.
	recs = append(recs, tracefmt.Record{Kind: tracefmt.EvFastRead, FileID: 1,
		Annot: tracefmt.AnnotFastRefused, Returned: 4096, BytePos: 4096})
	recs = append(recs, tracefmt.Record{Kind: tracefmt.EvRead, FileID: 1,
		Status: types.StatusEndOfFile})
	// Cache-manager paging excluded.
	pg := tracefmt.Record{Kind: tracefmt.EvPagingRead,
		FileID: tracefmt.PagingObjectIDBase + 1, Length: 4096}
	recs = append(recs, pg)
	mt := analysis.NewMachineTrace("m", machine.Personal, recs)
	acc := ExtractReads(mt)
	if len(acc) != 3 {
		t.Fatalf("accesses = %d, want 3 pages", len(acc))
	}
	for i, a := range acc {
		if a.Path != `C:\f` || a.Page != int64(i) {
			t.Errorf("access %d = %+v", i, a)
		}
	}
}

func TestSweepShapes(t *testing.T) {
	// Zipf-ish synthetic stream: popular pages rewarded by larger caches.
	rng := sim.NewRNG(9)
	var trace []Access
	for i := 0; i < 20000; i++ {
		trace = append(trace, Access{Path: "data", Page: rng.Int63n(1 + rng.Int63n(2000))})
	}
	results := Sweep(trace, []float64{0.5, 2, 8})
	if len(results) != 9 {
		t.Fatalf("results = %d", len(results))
	}
	// Hit ratio must not decrease with cache size for LRU.
	var lruRatios []float64
	for _, r := range results {
		if r.Policy == "LRU" {
			lruRatios = append(lruRatios, r.HitRatio)
		}
	}
	for i := 1; i < len(lruRatios); i++ {
		if lruRatios[i] < lruRatios[i-1]-1e-9 {
			t.Errorf("LRU hit ratio decreased with size: %v", lruRatios)
		}
	}
	out := Render(results)
	if !strings.Contains(out, "LRU") || !strings.Contains(out, "2Q") {
		t.Error("render missing policies")
	}
}
