package dataflow

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/relation"
)

func TestQueueFIFO(t *testing.T) {
	var q queue
	for i := 0; i < 10; i++ {
		q.push(batchMsg{rows: []relation.Tuple{{relation.IntValue(int64(i))}}})
	}
	q.close()
	for i := 0; i < 10; i++ {
		m, ok, drained := q.tryPop()
		if !ok || drained {
			t.Fatalf("tryPop %d: ok=%v drained=%v", i, ok, drained)
		}
		if m.rows[0][0].Int() != int64(i) {
			t.Fatalf("tryPop %d got %v", i, m.rows[0][0])
		}
	}
	if _, ok, drained := q.tryPop(); ok || !drained {
		t.Fatalf("closed drained queue: ok=%v drained=%v, want false and true", ok, drained)
	}
}

// A queue is ready, for its slot's re-check, exactly when tryPop would
// hand out a batch or report the queue drained: an empty open queue is
// neither, and stays so until a push or a close.
func TestQueueReadyMatchesTryPop(t *testing.T) {
	var q queue
	if q.ready() {
		t.Fatal("an empty open queue is ready")
	}
	if _, ok, drained := q.tryPop(); ok || drained {
		t.Fatalf("empty open queue: ok=%v drained=%v, want neither", ok, drained)
	}
	q.push(batchMsg{dropped: 3})
	if !q.ready() {
		t.Fatal("a queue holding a batch is not ready")
	}
	q.close()
	if m, ok, drained := q.tryPop(); !ok || drained || m.dropped != 3 {
		t.Fatalf("closed queue with a batch: %+v ok=%v drained=%v, want the batch", m, ok, drained)
	}
	if !q.ready() {
		t.Fatal("a closed drained queue is not ready")
	}
	for range 2 { // drained stays drained
		if _, ok, drained := q.tryPop(); ok || !drained {
			t.Fatalf("closed drained queue: ok=%v drained=%v, want drained", ok, drained)
		}
	}
}

func TestQueueDepth(t *testing.T) {
	var q queue
	if q.Depth() != 0 {
		t.Fatalf("empty queue Depth = %d, want 0", q.Depth())
	}
	for i := 0; i < 5; i++ {
		q.push(batchMsg{rows: []relation.Tuple{{relation.IntValue(int64(i))}}})
		if got := q.Depth(); got != i+1 {
			t.Fatalf("Depth after %d pushes = %d", i+1, got)
		}
	}
	if _, ok, _ := q.tryPop(); !ok {
		t.Fatal("tryPop found no batch")
	}
	if got := q.Depth(); got != 4 {
		t.Fatalf("Depth after tryPop = %d, want 4", got)
	}
	// Depth must be safe against concurrent producers (exercised with
	// -race): readers take the queue lock rather than racing on count.
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				q.push(batchMsg{})
				_ = q.Depth()
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				_ = q.Depth()
			}
		}
	}()
	wg.Wait()
	close(done)
	if got := q.Depth(); got != 404 {
		t.Fatalf("Depth after concurrent pushes = %d, want 404", got)
	}
}

// One consumer takes every batch eight producers push, each producer's
// in its order, and sees the queue drained only after the last producer
// closed it.
func TestQueueConcurrentProducers(t *testing.T) {
	var q queue
	const producers, each = 8, 100
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				q.push(batchMsg{rows: []relation.Tuple{{relation.IntValue(int64(p)), relation.IntValue(int64(i))}}})
			}
		}()
	}
	go func() {
		wg.Wait()
		q.close()
	}()
	next := make([]int64, producers)
	count := 0
	for {
		m, ok, drained := q.tryPop()
		if drained {
			break
		}
		if !ok {
			runtime.Gosched()
			continue
		}
		p, i := m.rows[0][0].Int(), m.rows[0][1].Int()
		if i != next[p] {
			t.Fatalf("producer %d: got batch %d, want %d", p, i, next[p])
		}
		next[p]++
		count++
	}
	if count != producers*each {
		t.Fatalf("received %d of %d messages", count, producers*each)
	}
}

// TestQueueWraparound interleaves pushes and pops so head laps the
// ring repeatedly, across several growths.
func TestQueueWraparound(t *testing.T) {
	var q queue
	next := int64(0) // next value to push
	want := int64(0) // next value expected from tryPop
	push := func(n int) {
		for i := 0; i < n; i++ {
			q.push(batchMsg{rows: []relation.Tuple{{relation.IntValue(next)}}})
			next++
		}
	}
	pop := func(n int) {
		for i := 0; i < n; i++ {
			m, ok, _ := q.tryPop()
			if !ok {
				t.Fatalf("tryPop found no batch, want %d", want)
			}
			if got := m.rows[0][0].Int(); got != want {
				t.Fatalf("tryPop got %d, want %d", got, want)
			}
			want++
		}
	}
	// Drive head around the ring with uneven push/pop bursts, growing
	// the buffer from 8 to 16 to 32 along the way.
	push(6)
	pop(4)
	for i := 0; i < 50; i++ {
		push(7)
		pop(5)
	}
	pop(int(next - want))
	if q.count != 0 {
		t.Fatalf("queue should be empty, count=%d", q.count)
	}
}

// Queues whose first rings are carved back to back from one block, as
// Start carves a node's: each wraps inside its own ring, then grows out
// of the block into a ring of its own, without writing into its
// neighbour's slots and without losing its order.
func TestQueueGrowsOutOfBlockRing(t *testing.T) {
	block := make([]batchMsg, 3*queueRing)
	qs := make([]queue, 3)
	for i := range qs {
		qs[i].buf = block[i*queueRing : (i+1)*queueRing : (i+1)*queueRing]
	}
	one := func(q, v int) batchMsg {
		return batchMsg{rows: []relation.Tuple{{relation.IntValue(int64(q)), relation.IntValue(int64(v))}}}
	}
	next, want := make([]int, len(qs)), make([]int, len(qs))
	push := func(q, n int) {
		for range n {
			qs[q].push(one(q, next[q]))
			next[q]++
		}
	}
	pop := func(q, n int) {
		for range n {
			m, ok, _ := qs[q].tryPop()
			if !ok {
				t.Fatalf("queue %d: tryPop found no batch, want %d", q, want[q])
			}
			if gq, gv := m.rows[0][0].Int(), m.rows[0][1].Int(); gq != int64(q) || gv != int64(want[q]) {
				t.Fatalf("queue %d: tryPop got queue %d batch %d, want batch %d", q, gq, gv, want[q])
			}
			want[q]++
		}
	}
	for q := range qs {
		push(q, queueRing)
	}
	pop(1, 3) // queue 1 wraps inside its block ring
	push(1, 3)
	if &qs[1].buf[0] != &block[queueRing] {
		t.Fatal("a queue holding no more than its block ring left the block")
	}
	push(1, 2*queueRing) // and then grows out of it
	if &qs[1].buf[0] == &block[queueRing] || len(qs[1].buf) < 3*queueRing {
		t.Fatalf("queue 1 holds %d batches in a ring of %d, still the block's", qs[1].count, len(qs[1].buf))
	}
	push(0, 1) // its neighbours grow too
	push(2, 1)
	for q := range qs {
		pop(q, next[q]-want[q])
		if _, ok, drained := qs[q].tryPop(); ok || drained {
			t.Fatalf("queue %d: ok=%v drained=%v after every batch, want neither", q, ok, drained)
		}
	}
}

// TestQueuePopReleasesSlot pins the memory-retention fix: a popped
// slot must be zeroed so the consumed batch is collectable while the
// ring's backing array lives on.
func TestQueuePopReleasesSlot(t *testing.T) {
	var q queue
	q.push(batchMsg{rows: []relation.Tuple{{relation.IntValue(int64(1))}}})
	head := q.head
	if _, ok, _ := q.tryPop(); !ok {
		t.Fatal("tryPop found no batch")
	}
	if q.buf[head].rows != nil {
		t.Fatal("popped slot still references its batch")
	}
}

func TestQueuePushAfterClosePanics(t *testing.T) {
	var q queue
	q.close()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	q.push(batchMsg{})
}

func TestGatePauseResume(t *testing.T) {
	var g gate
	if g.paused() {
		t.Fatal("the zero gate should be open")
	}
	if err := g.wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !g.pause() {
		t.Fatal("pause of an open gate should report that it closed it")
	}
	if !g.paused() {
		t.Fatal("gate should be paused")
	}
	if g.pause() {
		t.Fatal("pause of a paused gate should report that it did not close it")
	}
	released := make(chan struct{})
	go func() {
		g.wait(context.Background())
		close(released)
	}()
	select {
	case <-released:
		t.Fatal("wait returned while paused")
	case <-time.After(20 * time.Millisecond):
	}
	g.resume()
	select {
	case <-released:
	case <-time.After(time.Second):
		t.Fatal("wait did not release after resume")
	}
	g.resume() // idempotent
	if g.paused() {
		t.Fatal("gate should be open after resume")
	}
}

func TestGateWaitHonorsContext(t *testing.T) {
	var g gate
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := g.wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("open gate: wait = %v, want context.Canceled", err)
	}
	g.pause()
	if err := g.wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("paused gate: wait = %v, want context.Canceled", err)
	}
}
