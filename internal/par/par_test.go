package par

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestForRunsEachIndexOnce checks every index runs exactly once for
// worker counts below, at and above n, including n = 0. Run it with
// -race: the counts are written from the workers.
func TestForRunsEachIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 64, 1000} {
		for _, workers := range []int{-1, 0, 1, 2, n, n + 3, 4 * n} {
			counts := make([]atomic.Int32, n)
			For(workers, n, func(i int) { counts[i].Add(1) })
			for i := range counts {
				if c := counts[i].Load(); c != 1 {
					t.Fatalf("n=%d workers=%d: index %d ran %d times", n, workers, i, c)
				}
			}
		}
	}
}

// TestForSerialInOrder checks one worker or fewer runs the calls in
// index order on the caller's goroutine: a plain slice append, unsafe
// from any other goroutine, sees ascending indices.
func TestForSerialInOrder(t *testing.T) {
	for _, workers := range []int{-1, 0, 1} {
		var got []int
		For(workers, 5, func(i int) { got = append(got, i) })
		for i, v := range got {
			if v != i {
				t.Fatalf("workers=%d: call %d got index %d", workers, i, v)
			}
		}
		if len(got) != 5 {
			t.Fatalf("workers=%d: %d calls, want 5", workers, len(got))
		}
	}
}

// TestForReraisesWorkerPanic checks a panic in f on a worker goroutine
// reaches the caller's deferred recover as a *Panic with the value of the
// lowest panicking index and the panicking worker's stack, and that For
// returns only after every worker has: no call of f runs after the
// recover. Run it with -race.
func TestForReraisesWorkerPanic(t *testing.T) {
	const n = 64
	for _, workers := range []int{2, 4, n + 3} {
		var running atomic.Int32
		recovered := func() (p any) {
			defer func() { p = recover() }()
			For(workers, n, func(i int) {
				running.Add(1)
				defer running.Add(-1)
				if i == 9 || i == 40 {
					panic(fmt.Sprintf("boom %d", i))
				}
				if i < 9 {
					time.Sleep(time.Millisecond)
				}
			})
			return nil
		}()
		if running.Load() != 0 {
			t.Fatalf("workers=%d: %d calls still running after For panicked", workers, running.Load())
		}
		p, ok := recovered.(*Panic)
		if !ok {
			t.Fatalf("workers=%d: recovered %T %v, want *Panic", workers, recovered, recovered)
		}
		if p.Value != "boom 9" {
			t.Errorf("workers=%d: value %v, want the lowest panicking index's \"boom 9\"", workers, p.Value)
		}
		if !strings.Contains(string(p.Stack), "TestForReraisesWorkerPanic") {
			t.Errorf("workers=%d: stack does not show the panicking f:\n%s", workers, p.Stack)
		}
		if !strings.Contains(p.Error(), "boom 9") {
			t.Errorf("workers=%d: Error() = %q", workers, p.Error())
		}
		// Any goroutine still in f would bump the counter now.
		time.Sleep(5 * time.Millisecond)
		if running.Load() != 0 {
			t.Fatalf("workers=%d: a call ran after For returned", workers)
		}
	}
}

// TestForSerialPanicUnchanged checks one worker lets f's panic through
// as is.
func TestForSerialPanicUnchanged(t *testing.T) {
	defer func() {
		if p := recover(); p != "serial" {
			t.Fatalf("recovered %#v, want \"serial\"", p)
		}
	}()
	For(1, 3, func(i int) {
		if i == 2 {
			panic("serial")
		}
	})
}
