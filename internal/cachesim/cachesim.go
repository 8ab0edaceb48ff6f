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
	"fmt"
	"runtime"

	"repro/internal/analysis"
	"repro/internal/par"
	"repro/internal/tracefmt"
)

// PageSize matches the NT page size.
const PageSize = 4096

// Access is one page touch.
type Access struct {
	Path string
	Page int64
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

// Policy is a page-cache replacement policy over page numbers: Sweep
// and Run number each distinct (path, page) of a stream once, in
// first-access order, and a policy keeps its state in slices indexed by
// that number.
type Policy interface {
	// PolicyName identifies the policy in reports.
	PolicyName() string
	// Touch records an access to page number p (p >= 0), returning
	// whether it hit. The policy must respect its capacity.
	Touch(p int32) bool
	// Len reports resident pages.
	Len() int
}

// --- Slice-threaded queues ---------------------------------------------------

// none is the null page number: the end of a queue.
const none int32 = -1

// links holds, for every page number, its neighbours in the queue that
// holds it and which queue that is (0 for none). The queues of one
// policy share one links, so a page moves between them without copying.
type links struct {
	prev, next []int32
	in         []uint8
}

// reach makes page p addressable. Pages are numbered in first-access
// order, so a new page takes the next slot.
func (l *links) reach(p int32) {
	for int(p) >= len(l.in) {
		l.prev = append(l.prev, none)
		l.next = append(l.next, none)
		l.in = append(l.in, 0)
	}
}

// queue is a doubly linked list of page numbers threaded through its
// links' prev and next slices, front first: the order container/list
// keeps under PushFront, MoveToFront and Remove.
type queue struct {
	l          *links
	id         uint8
	head, tail int32
	n          int
}

func newQueue(l *links, id uint8) queue { return queue{l: l, id: id, head: none, tail: none} }

func (q *queue) has(p int32) bool { return q.l.in[p] == q.id }

func (q *queue) pushFront(p int32) {
	l := q.l
	l.prev[p], l.next[p], l.in[p] = none, q.head, q.id
	if q.head != none {
		l.prev[q.head] = p
	} else {
		q.tail = p
	}
	q.head = p
	q.n++
}

func (q *queue) remove(p int32) {
	l := q.l
	prev, next := l.prev[p], l.next[p]
	if prev != none {
		l.next[prev] = next
	} else {
		q.head = next
	}
	if next != none {
		l.prev[next] = prev
	} else {
		q.tail = prev
	}
	l.in[p] = 0
	q.n--
}

func (q *queue) moveToFront(p int32) {
	if q.head != p {
		q.remove(p)
		q.pushFront(p)
	}
}

// popBack removes the page at the back, the oldest.
func (q *queue) popBack() { q.remove(q.tail) }

// --- LRU --------------------------------------------------------------------

type lru struct {
	cap int
	l   links
	q   queue
}

// NewLRU returns a least-recently-used policy with the given page
// capacity.
func NewLRU(capacity int) Policy {
	c := &lru{cap: capacity}
	c.q = newQueue(&c.l, 1)
	return c
}

func (c *lru) PolicyName() string { return "LRU" }
func (c *lru) Len() int           { return c.q.n }

func (c *lru) Touch(p int32) bool {
	c.l.reach(p)
	if c.q.has(p) {
		c.q.moveToFront(p)
		return true
	}
	c.q.pushFront(p)
	if c.q.n > c.cap {
		c.q.popBack()
	}
	return false
}

// --- FIFO -------------------------------------------------------------------

type fifo struct {
	cap int
	l   links
	q   queue
}

// NewFIFO returns a first-in-first-out policy.
func NewFIFO(capacity int) Policy {
	c := &fifo{cap: capacity}
	c.q = newQueue(&c.l, 1)
	return c
}

func (c *fifo) PolicyName() string { return "FIFO" }
func (c *fifo) Len() int           { return c.q.n }

func (c *fifo) Touch(p int32) bool {
	c.l.reach(p)
	if c.q.has(p) {
		return true
	}
	c.q.pushFront(p)
	if c.q.n > c.cap {
		c.q.popBack()
	}
	return false
}

// --- 2Q (simplified Johnson/Shasha) ------------------------------------------

type twoQ struct {
	cap   int
	a1cap int
	l     links
	a1    queue // probation FIFO
	am    queue // protected LRU
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
	c := &twoQ{cap: capacity, a1cap: a1}
	c.a1 = newQueue(&c.l, 1)
	c.am = newQueue(&c.l, 2)
	return c
}

func (c *twoQ) PolicyName() string { return "2Q" }
func (c *twoQ) Len() int           { return c.a1.n + c.am.n }

func (c *twoQ) Touch(p int32) bool {
	c.l.reach(p)
	if c.am.has(p) {
		c.am.moveToFront(p)
		return true
	}
	if c.a1.has(p) {
		// Promote to the protected queue.
		c.a1.remove(p)
		c.am.pushFront(p)
		c.evict()
		return true
	}
	c.a1.pushFront(p)
	c.evict()
	return false
}

func (c *twoQ) evict() {
	for c.a1.n > c.a1cap {
		c.a1.popBack()
	}
	for c.a1.n+c.am.n > c.cap && c.am.n > 0 {
		c.am.popBack()
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

// number maps each access to the number of its (path, page): distinct
// pages are numbered 0, 1, … in first-access order.
func number(accesses []Access) []int32 {
	seen := map[Access]int32{}
	ids := make([]int32, len(accesses))
	for i, a := range accesses {
		id, ok := seen[a]
		if !ok {
			id = int32(len(seen))
			seen[a] = id
		}
		ids[i] = id
	}
	return ids
}

// Run replays accesses against a freshly built policy.
func Run(accesses []Access, build func(capacityPages int) Policy, capacityPages int) Result {
	return run(number(accesses), build, capacityPages)
}

// run replays a numbered stream against a freshly built policy.
func run(ids []int32, build func(capacityPages int) Policy, capacityPages int) Result {
	p := build(capacityPages)
	hits := 0
	for _, id := range ids {
		if p.Touch(id) {
			hits++
		}
	}
	r := Result{
		Policy:   p.PolicyName(),
		CacheMB:  float64(capacityPages) * PageSize / (1 << 20),
		Accesses: len(ids),
		Hits:     hits,
		Resident: p.Len(),
	}
	if r.Accesses > 0 {
		r.HitRatio = float64(hits) / float64(r.Accesses)
	}
	return r
}

// Sweep runs every policy across a geometric size sweep. The stream is
// numbered once; its cells, one size × one policy each, replay it on
// par.For at GOMAXPROCS workers and land in size-major, policy-minor
// order.
func Sweep(accesses []Access, sizesMB []float64) []Result {
	builders := []func(int) Policy{NewLRU, NewFIFO, New2Q}
	ids := number(accesses)
	out := make([]Result, len(sizesMB)*len(builders))
	par.For(runtime.GOMAXPROCS(0), len(out), func(i int) {
		pages := int(sizesMB[i/len(builders)] * (1 << 20) / PageSize)
		if pages < 1 {
			pages = 1
		}
		out[i] = run(ids, builders[i%len(builders)], pages)
	})
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
