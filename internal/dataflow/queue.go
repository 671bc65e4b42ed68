package dataflow

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/relation"
)

// batchMsg is one batch of rows flowing along an edge. dropped counts
// the rows an upstream join judged against this consumer's own
// predicate and did not build: the batch stands for len(rows)+dropped
// tuples.
type batchMsg struct {
	rows    []relation.Tuple
	dropped int
}

// queue is an unbounded MPSC queue of batches. Unbounded buffering
// keeps diamond-shaped DAGs deadlock-free: a producer never blocks on a
// slow consumer, which matters when one operator feeds both the build
// and probe side of a downstream join.
//
// Storage is a ring buffer over buf: head indexes the oldest element,
// count is the number queued. Pop is O(1), popped slots are zeroed so
// consumed batches become collectable immediately (the earlier
// `items = items[1:]` reslicing kept every popped batch reachable
// through the backing array), and steady-state push/pop reuses the
// same storage instead of perpetually appending.
//
// A queue never blocks: its one consumer, a worker slot, takes batches
// with tryPop, and whoever pushes or closes wakes the slot (see
// Execution.wake).
type queue struct {
	mu     sync.Mutex
	buf    []batchMsg
	head   int
	count  int
	closed bool
}

// grow doubles the ring (min 8 slots), unrolling it to index 0.
// Callers hold q.mu.
func (q *queue) grow() {
	capacity := 2 * len(q.buf)
	if capacity < 8 {
		capacity = 8
	}
	buf := make([]batchMsg, capacity)
	for i := 0; i < q.count; i++ {
		buf[i] = q.buf[(q.head+i)%len(q.buf)]
	}
	q.buf = buf
	q.head = 0
}

// push enqueues a batch. Pushing to a closed queue panics — it would
// indicate an executor sequencing bug.
func (q *queue) push(m batchMsg) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		panic("dataflow: push to closed queue")
	}
	if q.count == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.count)%len(q.buf)] = m
	q.count++
	q.mu.Unlock()
}

// Depth returns the number of queued batches. It takes the queue lock,
// so it is safe against concurrent producers — instrumentation must use
// this instead of reading the ring-buffer indices directly, which
// races under -race.
func (q *queue) Depth() int {
	q.mu.Lock()
	n := q.count
	q.mu.Unlock()
	return n
}

// close marks the end of the stream.
func (q *queue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
}

// tryPop dequeues the next batch without waiting: ok reports a batch,
// and drained, when there is none, that the queue is closed.
func (q *queue) tryPop() (m batchMsg, ok, drained bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.count == 0 {
		return batchMsg{}, false, q.closed
	}
	m = q.buf[q.head]
	q.buf[q.head] = batchMsg{} // release the batch for GC
	q.head = (q.head + 1) % len(q.buf)
	q.count--
	return m, true, false
}

// ready reports whether tryPop would return a batch or drained.
func (q *queue) ready() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.count > 0 || q.closed
}

// gate implements cooperative pause/resume. Workers call wait between
// batches; pause makes them block until resume. ch is the channel a
// paused gate's waiters block on, nil while the gate is open, so the
// zero gate is open and the open path of wait is one atomic load.
type gate struct{ ch atomic.Pointer[chan struct{}] }

// pause closes the gate and reports whether it did: false when the
// gate was already paused.
func (g *gate) pause() bool {
	ch := make(chan struct{})
	return g.ch.CompareAndSwap(nil, &ch)
}

// resume opens the gate and releases its waiters.
func (g *gate) resume() {
	if ch := g.ch.Swap(nil); ch != nil {
		close(*ch)
	}
}

func (g *gate) paused() bool { return g.ch.Load() != nil }

// wait blocks while the gate is paused; it returns ctx.Err() once ctx
// is done, paused or not. The open path still looks at ctx: tryPop
// hands out queued batches without looking at it, and a source's scan
// loop has no other check.
func (g *gate) wait(ctx context.Context) error {
	for {
		ch := g.ch.Load()
		if ch == nil {
			select {
			case <-ctx.Done():
				return ctx.Err()
			default:
				return nil
			}
		}
		select {
		case <-*ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}
