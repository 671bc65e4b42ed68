package dataflow

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/relation"
)

func TestQueueFIFO(t *testing.T) {
	q := newQueue()
	for i := 0; i < 10; i++ {
		q.push(batchMsg{rows: []relation.Tuple{{relation.IntValue(int64(i))}}})
	}
	q.close()
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		m, ok, err := q.pop(ctx)
		if err != nil || !ok {
			t.Fatalf("pop %d: ok=%v err=%v", i, ok, err)
		}
		if m.rows[0][0].Int() != int64(i) {
			t.Fatalf("pop %d got %v", i, m.rows[0][0])
		}
	}
	if _, ok, err := q.pop(ctx); ok || err != nil {
		t.Fatal("closed drained queue should return !ok, nil error")
	}
}

func TestQueueDepth(t *testing.T) {
	q := newQueue()
	if q.Depth() != 0 {
		t.Fatalf("empty queue Depth = %d, want 0", q.Depth())
	}
	for i := 0; i < 5; i++ {
		q.push(batchMsg{rows: []relation.Tuple{{relation.IntValue(int64(i))}}})
		if got := q.Depth(); got != i+1 {
			t.Fatalf("Depth after %d pushes = %d", i+1, got)
		}
	}
	ctx := context.Background()
	if _, _, err := q.pop(ctx); err != nil {
		t.Fatal(err)
	}
	if got := q.Depth(); got != 4 {
		t.Fatalf("Depth after pop = %d, want 4", got)
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

func TestQueueBlocksUntilPush(t *testing.T) {
	q := newQueue()
	got := make(chan int64, 1)
	go func() {
		m, ok, _ := q.pop(context.Background())
		if ok {
			got <- m.rows[0][0].Int()
		}
	}()
	time.Sleep(10 * time.Millisecond)
	q.push(batchMsg{rows: []relation.Tuple{{relation.IntValue(int64(42))}}})
	select {
	case v := <-got:
		if v != 42 {
			t.Fatalf("got %d", v)
		}
	case <-time.After(time.Second):
		t.Fatal("pop never woke up")
	}
}

func TestQueuePopHonorsContext(t *testing.T) {
	q := newQueue()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := q.pop(ctx)
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("expected context error")
		}
	case <-time.After(time.Second):
		t.Fatal("pop did not return on cancel")
	}
}

func TestQueueConcurrentProducers(t *testing.T) {
	q := newQueue()
	const producers, each = 8, 100
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				q.push(batchMsg{rows: []relation.Tuple{{relation.IntValue(int64(i))}}})
			}
		}()
	}
	go func() {
		wg.Wait()
		q.close()
	}()
	count := 0
	ctx := context.Background()
	for {
		_, ok, err := q.pop(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		count++
	}
	if count != producers*each {
		t.Fatalf("received %d of %d messages", count, producers*each)
	}
}

// TestQueueWraparound interleaves pushes and pops so head laps the
// ring repeatedly, across several growths.
func TestQueueWraparound(t *testing.T) {
	q := newQueue()
	ctx := context.Background()
	next := int64(0) // next value to push
	want := int64(0) // next value expected from pop
	push := func(n int) {
		for i := 0; i < n; i++ {
			q.push(batchMsg{rows: []relation.Tuple{{relation.IntValue(next)}}})
			next++
		}
	}
	pop := func(n int) {
		for i := 0; i < n; i++ {
			m, ok, err := q.pop(ctx)
			if err != nil || !ok {
				t.Fatalf("pop: ok=%v err=%v", ok, err)
			}
			if got := m.rows[0][0].Int(); got != want {
				t.Fatalf("pop got %d, want %d", got, want)
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

// TestQueuePopReleasesSlot pins the memory-retention fix: a popped
// slot must be zeroed so the consumed batch is collectable while the
// ring's backing array lives on.
func TestQueuePopReleasesSlot(t *testing.T) {
	q := newQueue()
	q.push(batchMsg{rows: []relation.Tuple{{relation.IntValue(int64(1))}}})
	head := q.head
	if _, ok, err := q.pop(context.Background()); !ok || err != nil {
		t.Fatalf("pop: ok=%v err=%v", ok, err)
	}
	if q.buf[head].rows != nil {
		t.Fatal("popped slot still references its batch")
	}
}

func TestQueuePushAfterClosePanics(t *testing.T) {
	q := newQueue()
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

// A worker's ports share one wake-up channel: a token pushed for port 1
// while the worker waits on port 0 is spent there, and pop on port 1
// still finds the batch, because it reads its queue before it waits.
func TestQueuesShareWakeChannel(t *testing.T) {
	wake := make(chan struct{}, 1)
	ports := []queue{{signal: wake}, {signal: wake}}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	done := make(chan []int64)
	go func() {
		var got []int64
		for p := range ports {
			for {
				m, ok, err := ports[p].pop(ctx)
				if err != nil {
					t.Error(err)
					break
				}
				if !ok {
					break
				}
				got = append(got, m.rows[0][0].Int())
			}
		}
		done <- got
	}()
	one := func(v int64) batchMsg { return batchMsg{rows: []relation.Tuple{{relation.IntValue(v)}}} }
	ports[1].push(one(10))
	time.Sleep(10 * time.Millisecond) // let the worker spend port 1's token on port 0
	ports[1].push(one(11))
	ports[1].close()
	ports[0].push(one(0))
	ports[0].close()
	got := <-done
	if len(got) != 3 || got[0] != 0 || got[1] != 10 || got[2] != 11 {
		t.Fatalf("worker popped %v, want [0 10 11]", got)
	}
}
