// Package cachesim replays the read-request stream extracted from a
// collected trace against alternative file-cache configurations — the
// downstream use the paper built its collection for ("could be used as
// input for file system simulation studies", §1), and the setting its §7
// warning targets: cache sizing from mean-based models fails under
// heavy-tailed request streams.
//
// The simulator consumes page-granular read accesses (path, page) in
// trace order and reports hit ratios for classic replacement policies at
// a sweep of cache sizes.
package cachesim

import (
	"container/list"
	"fmt"

	"repro/internal/analysis"
	"repro/internal/tracefmt"
)

// PageSize matches the NT page size.
const PageSize = 4096

// Access is one page touch.
type Access struct {
	Path string
	Page int64
}

// key identifies a cached page.
type key struct {
	path string
	page int64
}

// ExtractReads converts a machine trace into the page-access stream: all
// application-level reads (IRP and FastIO), page-expanded. Cache-manager
// paging records are excluded — they are effects of the original cache,
// not demand.
func ExtractReads(mt *analysis.MachineTrace) []Access {
	var out []Access
	t := mt.Table()
	for _, i := range mt.Index().Select(tracefmt.EvRead, tracefmt.EvFastRead) {
		if t.Annots[i]&tracefmt.AnnotFastRefused != 0 || t.Statuses[i].IsError() || t.Returns[i] <= 0 {
			continue
		}
		path := mt.PathOf(t.FileIDs[i])
		if path == "" {
			continue
		}
		pos := t.BytePositions[i]
		first := (pos - int64(t.Returns[i])) / PageSize
		last := (pos - 1) / PageSize
		for p := first; p <= last; p++ {
			out = append(out, Access{Path: path, Page: p})
		}
	}
	return out
}

// Policy is a page-cache replacement policy.
type Policy interface {
	// PolicyName identifies the policy in reports.
	PolicyName() string
	// Touch records an access, returning whether it hit. The policy must
	// respect its capacity.
	Touch(k key) bool
	// Len reports resident pages.
	Len() int
}

// --- LRU --------------------------------------------------------------------

type lru struct {
	cap   int
	list  *list.List
	index map[key]*list.Element
}

// NewLRU returns a least-recently-used policy with the given page
// capacity.
func NewLRU(capacity int) Policy {
	return &lru{cap: capacity, list: list.New(), index: map[key]*list.Element{}}
}

func (c *lru) PolicyName() string { return "LRU" }
func (c *lru) Len() int           { return c.list.Len() }

func (c *lru) Touch(k key) bool {
	if e, ok := c.index[k]; ok {
		c.list.MoveToFront(e)
		return true
	}
	c.index[k] = c.list.PushFront(k)
	if c.list.Len() > c.cap {
		back := c.list.Back()
		c.list.Remove(back)
		delete(c.index, back.Value.(key))
	}
	return false
}

// --- FIFO -------------------------------------------------------------------

type fifo struct {
	cap   int
	list  *list.List
	index map[key]*list.Element
}

// NewFIFO returns a first-in-first-out policy.
func NewFIFO(capacity int) Policy {
	return &fifo{cap: capacity, list: list.New(), index: map[key]*list.Element{}}
}

func (c *fifo) PolicyName() string { return "FIFO" }
func (c *fifo) Len() int           { return c.list.Len() }

func (c *fifo) Touch(k key) bool {
	if _, ok := c.index[k]; ok {
		return true
	}
	c.index[k] = c.list.PushFront(k)
	if c.list.Len() > c.cap {
		back := c.list.Back()
		c.list.Remove(back)
		delete(c.index, back.Value.(key))
	}
	return false
}

// --- 2Q (simplified Johnson/Shasha) ------------------------------------------

type twoQ struct {
	cap   int
	a1cap int
	a1    *list.List // probation FIFO
	am    *list.List // protected LRU
	a1idx map[key]*list.Element
	amidx map[key]*list.Element
}

// New2Q returns a simplified 2Q policy: a probationary FIFO (A1, 25% of
// capacity) in front of a protected LRU (Am); pages hit in A1 promote to
// Am. 2Q resists the single-touch sequential scans that flush plain LRU
// — exactly the heavy-tailed whole-file reads of the traces.
func New2Q(capacity int) Policy {
	a1 := capacity / 4
	if a1 < 1 {
		a1 = 1
	}
	return &twoQ{
		cap: capacity, a1cap: a1,
		a1: list.New(), am: list.New(),
		a1idx: map[key]*list.Element{}, amidx: map[key]*list.Element{},
	}
}

func (c *twoQ) PolicyName() string { return "2Q" }
func (c *twoQ) Len() int           { return c.a1.Len() + c.am.Len() }

func (c *twoQ) Touch(k key) bool {
	if e, ok := c.amidx[k]; ok {
		c.am.MoveToFront(e)
		return true
	}
	if e, ok := c.a1idx[k]; ok {
		// Promote to the protected queue.
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

func (c *twoQ) evict() {
	for c.a1.Len() > c.a1cap {
		back := c.a1.Back()
		c.a1.Remove(back)
		delete(c.a1idx, back.Value.(key))
	}
	for c.a1.Len()+c.am.Len() > c.cap && c.am.Len() > 0 {
		back := c.am.Back()
		c.am.Remove(back)
		delete(c.amidx, back.Value.(key))
	}
}

// --- Simulation --------------------------------------------------------------

// Result is one (policy, size) cell.
type Result struct {
	Policy   string
	CacheMB  float64
	Accesses int
	Hits     int
	HitRatio float64
	Resident int
}

// Run replays accesses against a freshly built policy.
func Run(accesses []Access, build func(capacityPages int) Policy, capacityPages int) Result {
	p := build(capacityPages)
	hits := 0
	for _, a := range accesses {
		if p.Touch(key{a.Path, a.Page}) {
			hits++
		}
	}
	r := Result{
		Policy:   p.PolicyName(),
		CacheMB:  float64(capacityPages) * PageSize / (1 << 20),
		Accesses: len(accesses),
		Hits:     hits,
		Resident: p.Len(),
	}
	if r.Accesses > 0 {
		r.HitRatio = float64(hits) / float64(r.Accesses)
	}
	return r
}

// Sweep runs every policy across a geometric size sweep.
func Sweep(accesses []Access, sizesMB []float64) []Result {
	builders := []func(int) Policy{NewLRU, NewFIFO, New2Q}
	var out []Result
	for _, mb := range sizesMB {
		pages := int(mb * (1 << 20) / PageSize)
		if pages < 1 {
			pages = 1
		}
		for _, b := range builders {
			out = append(out, Run(accesses, b, pages))
		}
	}
	return out
}

// Render prints a sweep as a text table.
func Render(results []Result) string {
	s := "Cache policy sweep (trace-driven replay)\n"
	s += fmt.Sprintf("  %-6s %8s %10s %10s\n", "policy", "size", "accesses", "hit ratio")
	for _, r := range results {
		s += fmt.Sprintf("  %-6s %6.1fMB %10d %9.1f%%\n",
			r.Policy, r.CacheMB, r.Accesses, 100*r.HitRatio)
	}
	return s
}
