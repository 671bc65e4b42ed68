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
// A queue has one consumer, which alone waits on signal. The executor
// keeps a node's in-port queues as values in one slice and gives a
// worker's ports one shared wake-up channel, so a token may stand for a
// change on another of the worker's queues. That is safe because pop
// reads the queue's state under its lock before every wait: a token
// spent while waiting on one port only wakes the worker early, and a
// change on the port it waits on after that read leaves a token (or
// finds one there) that ends the wait.
type queue struct {
	mu     sync.Mutex
	buf    []batchMsg
	head   int
	count  int
	closed bool
	signal chan struct{} // capacity 1, possibly shared; a token means "some state changed"
}

// newQueue returns a queue with a wake-up channel of its own.
func newQueue() *queue {
	return &queue{signal: make(chan struct{}, 1)}
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

func (q *queue) notify() {
	select {
	case q.signal <- struct{}{}:
	default:
	}
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
	q.notify()
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
	q.notify()
}

// pop dequeues the next batch. ok is false when the queue is closed
// and drained, or when ctx is done (err distinguishes the two).
func (q *queue) pop(ctx context.Context) (m batchMsg, ok bool, err error) {
	for {
		q.mu.Lock()
		if q.count > 0 {
			m = q.buf[q.head]
			q.buf[q.head] = batchMsg{} // release the batch for GC
			q.head = (q.head + 1) % len(q.buf)
			q.count--
			remaining := q.count > 0
			q.mu.Unlock()
			if remaining {
				q.notify() // keep the signal alive for queued items
			}
			return m, true, nil
		}
		if q.closed {
			q.mu.Unlock()
			return batchMsg{}, false, nil
		}
		q.mu.Unlock()
		select {
		case <-ctx.Done():
			return batchMsg{}, false, ctx.Err()
		case <-q.signal:
		}
	}
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
// is done, paused or not. The open path still looks at ctx: pop hands
// out queued batches without looking at it, and a source's scan loop
// has no other check.
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
