package obs

import (
	"sync"
	"time"
)

// exemplarTable records, per histogram bucket, the trace ID of the
// largest observation that landed there — the bridge from an aggregate
// latency histogram to the flight-recorder entry that explains it. The
// table is lazily attached (EnableExemplars) and updated under its own
// mutex so the plain Observe path — three atomic adds, no branch on
// exemplars — is completely untouched.
type exemplarTable struct {
	mu  sync.Mutex
	val [NumBuckets]int64
	id  [NumBuckets]uint64
	set [NumBuckets]bool
}

// Exemplar is one rendered bucket exemplar: the bucket's largest
// observed value and the trace that produced it.
type Exemplar struct {
	Bucket  int
	Value   int64
	TraceID uint64
}

// EnableExemplars attaches the exemplar table (idempotent, nil-safe).
// Until enabled, ObserveExemplar records the sample and drops the ID.
func (h *Histogram) EnableExemplars() {
	if h == nil {
		return
	}
	h.ex.CompareAndSwap(nil, &exemplarTable{})
}

// ObserveExemplar records one sample like Observe and, when exemplars
// are enabled and id is non-zero, remembers id as the bucket's exemplar
// if the sample is the largest seen there — so every occupied bucket
// links to its worst-case trace.
func (h *Histogram) ObserveExemplar(v int64, id uint64) {
	if h == nil {
		return
	}
	h.Observe(v)
	t := h.ex.Load()
	if t == nil || id == 0 {
		return
	}
	if v < 0 {
		v = 0
	}
	b := bucketFor(v)
	t.mu.Lock()
	if !t.set[b] || v >= t.val[b] {
		t.val[b] = v
		t.id[b] = id
		t.set[b] = true
	}
	t.mu.Unlock()
}

// ObserveWallExemplar is ObserveExemplar in the wall-clock unit
// (microseconds), pairing with ObserveWall.
func (h *Histogram) ObserveWallExemplar(d time.Duration, id uint64) {
	h.ObserveExemplar(d.Microseconds(), id)
}

// Exemplars snapshots the occupied exemplar slots in bucket order
// (nil when disabled, nil histogram, or nothing recorded).
func (h *Histogram) Exemplars() []Exemplar {
	if h == nil {
		return nil
	}
	t := h.ex.Load()
	if t == nil {
		return nil
	}
	var out []Exemplar
	t.mu.Lock()
	for b := 0; b < NumBuckets; b++ {
		if t.set[b] {
			out = append(out, Exemplar{Bucket: b, Value: t.val[b], TraceID: t.id[b]})
		}
	}
	t.mu.Unlock()
	return out
}
