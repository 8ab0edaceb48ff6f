package par

import (
	"sync/atomic"
	"testing"
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
