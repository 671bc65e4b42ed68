// Package par runs independent pieces of work on every core. Work split
// into calls that each read and write only their own slot, in their own
// order of float operations, computes the same bits on any core count.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// job is one Do call.
type job struct {
	f       func(int)
	n       int64
	next    atomic.Int64
	helpers sync.WaitGroup
	once    sync.Once
	panic   any // the first call's panic, read once the helpers are done
}

var work = make(chan *job) // unbuffered: a send lands only on an idle helper
var started atomic.Int64   // helpers started

// Do calls f(i) for every i in [0, n), once each, in no promised order,
// on the caller and on any idle helper, and returns when all have. The
// caller drains the job itself, so Do completes when every helper is busy
// or when nested. A panic in f is raised again on the caller once every
// call has returned.
func Do(n int, f func(i int)) {
	j := &job{f: f, n: int64(n)}
	for h := min(grow(), n-1); h > 0; h-- {
		j.helpers.Add(1)
		select {
		case work <- j:
		default:
			j.helpers.Done()
			h = 0
		}
	}
	j.run()
	j.helpers.Wait()
	if j.panic != nil {
		panic(j.panic)
	}
}

// grow starts helpers, the only goroutines par starts, until there are
// GOMAXPROCS − 1 and returns that number. They never exit: the runtime
// keeps an exited goroutine's g, so one per call would read as live heap.
func grow() int {
	want := int64(runtime.GOMAXPROCS(0) - 1)
	for h := started.Load(); h < want; h = started.Load() {
		if started.CompareAndSwap(h, h+1) {
			go func() {
				for j := range work {
					j.run()
					j.helpers.Done()
				}
			}()
		}
	}
	return int(want)
}

// run calls f on the indices left, going on past a call that panics.
func (j *job) run() {
	defer func() {
		if v := recover(); v != nil {
			j.once.Do(func() { j.panic = v })
			j.run()
		}
	}()
	for i := j.next.Add(1) - 1; i < j.n; i = j.next.Add(1) - 1 {
		j.f(int(i))
	}
}
