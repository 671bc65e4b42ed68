package par

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestDoCallsEveryIndexOnce wants each index called exactly once.
func TestDoCallsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, runtime.GOMAXPROCS(0), 1000} {
		calls := make([]atomic.Int32, n)
		Do(n, func(i int) { calls[i].Add(1) })
		for i := range calls {
			if c := calls[i].Load(); c != 1 {
				t.Fatalf("n=%d: index %d called %d times", n, i, c)
			}
		}
	}
}

// TestDoNested runs a Do inside every call of another.
func TestDoNested(t *testing.T) {
	const outer, inner = 16, 64
	var sum atomic.Int64
	Do(outer, func(i int) {
		Do(inner, func(j int) { sum.Add(int64(i*inner + j)) })
	})
	if n := int64(outer * inner); sum.Load() != n*(n-1)/2 {
		t.Fatalf("nested sum %d, want %d", sum.Load(), n*(n-1)/2)
	}
}

// TestDoCompletesWhileHelpersAreBusy blocks every helper inside one job
// and wants a second Do to finish on its caller alone.
func TestDoCompletesWhileHelpersAreBusy(t *testing.T) {
	helpers := grow()
	// One index per helper and one for the blocking goroutine, each of
	// which waits for release. A helper not yet parked when the job is
	// offered leaves an index unclaimed; then the attempt is released
	// and made again.
	for attempt := 0; ; attempt++ {
		release, blocked := make(chan struct{}), make(chan struct{})
		var entered atomic.Int32
		go func() {
			defer close(blocked)
			Do(helpers+1, func(int) {
				entered.Add(1)
				<-release
			})
		}()
		for spin := 0; entered.Load() < int32(helpers+1) && spin < 100_000; spin++ {
			runtime.Gosched()
		}
		if entered.Load() < int32(helpers+1) {
			close(release)
			<-blocked
			if attempt == 10 {
				t.Fatalf("the helpers never all took the blocking job")
			}
			continue
		}
		var calls atomic.Int32
		Do(100, func(int) { calls.Add(1) })
		close(release)
		<-blocked
		if calls.Load() != 100 {
			t.Fatalf("%d calls, want 100", calls.Load())
		}
		return
	}
}

// TestDoRaisesAPanicAfterEveryCall makes every index but the first
// panic and wants the panic on the caller once every index has run,
// and the helpers still serving the next Do.
func TestDoRaisesAPanicAfterEveryCall(t *testing.T) {
	const n = 64
	var calls atomic.Int32
	var got any
	func() {
		defer func() { got = recover() }()
		Do(n, func(i int) {
			calls.Add(1)
			if i > 0 {
				panic("boom")
			}
		})
	}()
	if got != "boom" {
		t.Fatalf("recovered %v, want boom", got)
	}
	if calls.Load() != n {
		t.Fatalf("%d calls before the panic was raised, want %d", calls.Load(), n)
	}
	var after atomic.Int32
	Do(n, func(int) { after.Add(1) })
	if after.Load() != n {
		t.Fatalf("%d calls after a panic, want %d", after.Load(), n)
	}
}

// TestDoRaisesAHelpersPanicOnTheCaller holds the caller's index until
// the other index, on a helper, has panicked, and wants that panic
// raised on the caller. An attempt no helper joined is made again.
func TestDoRaisesAHelpersPanicOnTheCaller(t *testing.T) {
	if grow() == 0 {
		t.Skip("GOMAXPROCS 1: no helper")
	}
	caller := goid()
	for attempt := 0; attempt < 10; attempt++ {
		panicked := make(chan struct{})
		var got any
		func() {
			defer func() { got = recover() }()
			Do(2, func(int) {
				if goid() == caller {
					select {
					case <-panicked:
					case <-time.After(time.Second):
					}
					return
				}
				defer close(panicked)
				panic("helper")
			})
		}()
		if got != nil {
			if got != "helper" {
				t.Fatalf("recovered %v, want helper", got)
			}
			return
		}
	}
	t.Fatal("no helper ever joined a Do of two")
}

// goid returns the calling goroutine's ID, read from its stack header.
func goid() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return strings.Fields(string(buf))[1]
}

// TestDoStartsNoGoroutinePerCall wants the goroutine count never to
// rise over 1,000 calls once the helpers are up. (It may fall, as an
// earlier test's goroutine finishes exiting.)
func TestDoStartsNoGoroutinePerCall(t *testing.T) {
	Do(8, func(int) {})
	base := runtime.NumGoroutine()
	for i := range 1000 {
		Do(8, func(int) {})
		if got := runtime.NumGoroutine(); got > base {
			t.Fatalf("%d goroutines after %d calls, %d before", got, i+1, base)
		}
	}
}

// TestDoAllocatesTheSameWhateverN wants the objects a Do allocates not
// to grow with n.
func TestDoAllocatesTheSameWhateverN(t *testing.T) {
	var sink atomic.Int64
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(100, func() {
			Do(n, func(i int) { sink.Add(int64(i)) })
		})
	}
	base := allocs(1)
	for _, n := range []int{2, 64, 1000} {
		if got := allocs(n); got != base {
			t.Fatalf("Do(%d) allocated %v objects, Do(1) %v", n, got, base)
		}
	}
}
