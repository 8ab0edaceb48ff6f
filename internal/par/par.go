// Package par runs independent, index-addressed work items on a bounded
// set of goroutines: the one worker pool every fan-out in the repository
// shares.
package par

import (
	"fmt"
	"runtime/debug"
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
//
// A panic in f on a worker goroutine does not end the process: the
// worker recovers it and claims no further index, the other workers
// finish the calls they are in and stop, and once all of them have
// returned For panics on the caller's goroutine with a *Panic holding
// the value of the lowest panicking index and the stack of the worker it
// panicked on. Indices are claimed in order and every claimed call
// finishes, so that index is the lowest one whose f panics. With one
// worker the panic propagates from f unchanged.
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
	var stop atomic.Bool
	var mu sync.Mutex
	var first *Panic
	firstIndex := n
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for !stop.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if p := call(f, i); p != nil {
					mu.Lock()
					if i < firstIndex {
						first, firstIndex = p, i
					}
					mu.Unlock()
					stop.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	if first != nil {
		panic(first)
	}
}

// call runs f(i) and returns what it panicked with, if it did.
func call(f func(int), i int) (p *Panic) {
	defer func() {
		if v := recover(); v != nil {
			p = &Panic{Value: v, Stack: debug.Stack()}
		}
	}()
	f(i)
	return nil
}

// Panic is what For panics with on the caller when f panicked on a
// worker goroutine.
type Panic struct {
	// Value is the value f panicked with.
	Value any
	// Stack is the worker goroutine's stack where f panicked.
	Stack []byte
}

// Error gives the value and the worker's stack, which a crash report
// would otherwise lose: it shows the caller's stack only.
func (p *Panic) Error() string {
	return fmt.Sprintf("%v\n\nworker goroutine stack:\n%s", p.Value, p.Stack)
}
