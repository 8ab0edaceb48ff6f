package cachesim

import (
	"container/list"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/sim"
)

// The reference policies below are the container/list + map
// implementations the slice-threaded ones replaced, kept verbatim in
// behaviour so the property tests can check every access against them.

type refPolicy interface {
	touch(a Access) bool
	len() int
}

type refLRU struct {
	cap   int
	list  *list.List
	index map[Access]*list.Element
}

func newRefLRU(capacity int) refPolicy {
	return &refLRU{cap: capacity, list: list.New(), index: map[Access]*list.Element{}}
}

func (c *refLRU) len() int { return c.list.Len() }

func (c *refLRU) touch(k Access) bool {
	if e, ok := c.index[k]; ok {
		c.list.MoveToFront(e)
		return true
	}
	c.index[k] = c.list.PushFront(k)
	if c.list.Len() > c.cap {
		back := c.list.Back()
		c.list.Remove(back)
		delete(c.index, back.Value.(Access))
	}
	return false
}

type refFIFO struct {
	cap   int
	list  *list.List
	index map[Access]*list.Element
}

func newRefFIFO(capacity int) refPolicy {
	return &refFIFO{cap: capacity, list: list.New(), index: map[Access]*list.Element{}}
}

func (c *refFIFO) len() int { return c.list.Len() }

func (c *refFIFO) touch(k Access) bool {
	if _, ok := c.index[k]; ok {
		return true
	}
	c.index[k] = c.list.PushFront(k)
	if c.list.Len() > c.cap {
		back := c.list.Back()
		c.list.Remove(back)
		delete(c.index, back.Value.(Access))
	}
	return false
}

type ref2Q struct {
	cap   int
	a1cap int
	a1    *list.List
	am    *list.List
	a1idx map[Access]*list.Element
	amidx map[Access]*list.Element
}

func newRef2Q(capacity int) refPolicy {
	a1 := capacity / 4
	if a1 < 1 {
		a1 = 1
	}
	return &ref2Q{
		cap: capacity, a1cap: a1,
		a1: list.New(), am: list.New(),
		a1idx: map[Access]*list.Element{}, amidx: map[Access]*list.Element{},
	}
}

func (c *ref2Q) len() int { return c.a1.Len() + c.am.Len() }

func (c *ref2Q) touch(k Access) bool {
	if e, ok := c.amidx[k]; ok {
		c.am.MoveToFront(e)
		return true
	}
	if e, ok := c.a1idx[k]; ok {
		c.a1.Remove(e)
		delete(c.a1idx, k)
		c.amidx[k] = c.am.PushFront(k)
		c.evict()
		return true
	}
	c.a1idx[k] = c.a1.PushFront(k)
	c.evict()
	return false
}

func (c *ref2Q) evict() {
	for c.a1.Len() > c.a1cap {
		back := c.a1.Back()
		c.a1.Remove(back)
		delete(c.a1idx, back.Value.(Access))
	}
	for c.a1.Len()+c.am.Len() > c.cap && c.am.Len() > 0 {
		back := c.am.Back()
		c.am.Remove(back)
		delete(c.amidx, back.Value.(Access))
	}
}

// refSweep is Sweep over the reference policies, serially.
func refSweep(accesses []Access, sizesMB []float64) []Result {
	builders := []func(int) refPolicy{newRefLRU, newRefFIFO, newRef2Q}
	names := []string{"LRU", "FIFO", "2Q"}
	var out []Result
	for _, mb := range sizesMB {
		pages := int(mb * (1 << 20) / PageSize)
		if pages < 1 {
			pages = 1
		}
		for bi, b := range builders {
			p := b(pages)
			hits := 0
			for _, a := range accesses {
				if p.touch(a) {
					hits++
				}
			}
			r := Result{Policy: names[bi], CacheMB: float64(pages) * PageSize / (1 << 20),
				Accesses: len(accesses), Hits: hits, Resident: p.len()}
			if r.Accesses > 0 {
				r.HitRatio = float64(hits) / float64(r.Accesses)
			}
			out = append(out, r)
		}
	}
	return out
}

// randomStream mixes the shapes that exercise every queue transition:
// re-touches of a few hot pages (LRU refresh, 2Q promotion), sequential
// scans longer than the cache (eviction from both 2Q queues) and random
// pages over a few paths.
func randomStream(rng *sim.RNG, n int) []Access {
	paths := 1 + int(rng.Int63n(5))
	var out []Access
	for len(out) < n {
		path := fmt.Sprintf("p%d", rng.Int63n(int64(paths)))
		switch rng.Int63n(4) {
		case 0: // re-touch a hot page, possibly several times
			page := rng.Int63n(4)
			for r := 1 + rng.Int63n(3); r > 0; r-- {
				out = append(out, Access{Path: path, Page: page})
			}
		case 1: // sequential scan
			first := rng.Int63n(200)
			for p := first; p < first+1+rng.Int63n(80); p++ {
				out = append(out, Access{Path: path, Page: p})
			}
		default: // random page
			out = append(out, Access{Path: path, Page: rng.Int63n(100)})
		}
	}
	return out[:n]
}

// TestPoliciesMatchReference replays random streams through every policy
// at capacities 1–64 and checks each Touch result and Len, after every
// access, against the container/list reference.
func TestPoliciesMatchReference(t *testing.T) {
	type pair struct {
		name string
		got  func(int) Policy
		want func(int) refPolicy
	}
	pairs := []pair{{"LRU", NewLRU, newRefLRU}, {"FIFO", NewFIFO, newRefFIFO}, {"2Q", New2Q, newRef2Q}}
	rng := sim.NewRNG(20)
	for trial := 0; trial < 40; trial++ {
		stream := randomStream(rng, 3000)
		ids := number(stream)
		capacity := 1 + int(rng.Int63n(64))
		for _, pp := range pairs {
			got, want := pp.got(capacity), pp.want(capacity)
			for i, a := range stream {
				g, w := got.Touch(ids[i]), want.touch(a)
				if g != w || got.Len() != want.len() {
					t.Fatalf("trial %d %s cap=%d access %d %+v: hit %v len %d, reference hit %v len %d",
						trial, pp.name, capacity, i, a, g, got.Len(), w, want.len())
				}
			}
		}
	}
}

// TestSweepMatchesReference checks Sweep's cells, in order, against the
// reference sweep at one and four workers.
func TestSweepMatchesReference(t *testing.T) {
	rng := sim.NewRNG(21)
	stream := randomStream(rng, 20000)
	sizes := []float64{0.001, 0.05, 0.1, 0.25}
	want := refSweep(stream, sizes)
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		got := Sweep(stream, sizes)
		runtime.GOMAXPROCS(prev)
		if len(got) != len(want) {
			t.Fatalf("GOMAXPROCS=%d: %d cells, want %d", procs, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("GOMAXPROCS=%d cell %d: %+v, want %+v", procs, i, got[i], want[i])
			}
		}
	}
}

// TestNumberFirstAccessOrder checks distinct pages are numbered in
// first-access order and repeats reuse their number.
func TestNumberFirstAccessOrder(t *testing.T) {
	stream := []Access{{"a", 0}, {"b", 0}, {"a", 0}, {"a", 1}, {"b", 0}, {"c", 7}}
	got := number(stream)
	want := []int32{0, 1, 0, 2, 1, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("numbers = %v, want %v", got, want)
		}
	}
}
