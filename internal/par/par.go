// Package par runs independent, index-addressed work items on a bounded
// set of goroutines: the one worker pool every fan-out in the repository
// shares.
package par

import (
	"sync"
	"sync/atomic"
)

// For calls f(i) once for every i in [0, n) on at most workers
// goroutines and returns when every call has returned. With one worker
// or fewer the calls run in index order on the caller's goroutine.
// Otherwise each worker takes the next unclaimed index from a shared
// counter, so a caller that stores the result of f(i) in slot i of a
// pre-sized slice gets the serial order back whatever the completion
// order. f must be safe to call from several goroutines at once.
func For(workers, n int, f func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}
