package telemetry

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestShardedInstrumentsConcurrent hammers every instrument from many
// goroutines (run under -race in CI) while a reader loops snapshots,
// then checks the values are exact: concurrent writers must never lose
// or double-count a write.
func TestShardedInstrumentsConcurrent(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c")
	g := reg.Gauge("g")
	h := reg.Histogram("h", "ns")

	const (
		writers = 8
		perGoro = 20000
	)
	stop := make(chan struct{})
	var readerDone sync.WaitGroup
	readerDone.Add(1)
	go func() {
		defer readerDone.Done()
		// Snapshot mid-write: must not race and counter sums must be
		// monotonically non-decreasing partial sums.
		var prev int64
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := reg.Snapshot(true)
			for _, cv := range snap.Counters {
				if cv.Name == "c" {
					if cv.Value < prev {
						t.Errorf("counter went backwards mid-write: %d -> %d", prev, cv.Value)
						return
					}
					prev = cv.Value
				}
			}
		}
	}()

	// The writers start together, so they overlap on every instrument
	// instead of running one after another.
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			// One tight loop per instrument keeps the writers on the same
			// word at the same time, where a lost update would show.
			for range perGoro {
				c.Add(1)
			}
			for i := range perGoro {
				g.Set(int64(w*perGoro + i))
			}
			for i := range perGoro {
				h.Observe(int64(i))
			}
		}(w)
	}
	close(start)
	wg.Wait()
	close(stop)
	readerDone.Wait()

	if got, want := c.Value(), int64(writers*perGoro); got != want {
		t.Errorf("counter lost writes: got %d, want %d", got, want)
	}
	if got, want := h.Count(), int64(writers*perGoro); got != want {
		t.Errorf("histogram lost observations: got %d, want %d", got, want)
	}
	// Writer w's final sample is w*perGoro+perGoro-1; the last writer's
	// is also the global max. Last is the most recent sample, which is
	// some writer's final one.
	if got, want := g.Max(), int64((writers-1)*perGoro+perGoro-1); got != want {
		t.Errorf("gauge max: got %d, want %d", got, want)
	}
	if got := g.Last(); got%perGoro != perGoro-1 {
		t.Errorf("gauge last: got %d, want some writer's final sample w*%d+%d", got, perGoro, perGoro-1)
	}
}

// TestRegistrationRacesSnapshot registers instruments from many
// goroutines while a reader snapshots — what runs sharing one recorder
// do on a server. Under -race this fails unless every field of a metric
// is written and read under the registry lock.
func TestRegistrationRacesSnapshot(t *testing.T) {
	reg := NewRegistry()
	const (
		writers = 4
		names   = 200
	)
	stop := make(chan struct{})
	var readerDone sync.WaitGroup
	readerDone.Add(1)
	go func() {
		defer readerDone.Done()
		for {
			select {
			case <-stop:
				return
			default:
				reg.Snapshot(true)
			}
		}
	}()
	var wg sync.WaitGroup
	for range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < names; i++ {
				// The same names from every writer: first use registers,
				// later uses fetch.
				reg.Counter(fmt.Sprintf("c%d", i)).Add(1)
				reg.Gauge(fmt.Sprintf("g%d", i)).Set(int64(i))
				reg.Histogram(fmt.Sprintf("h%d", i), "ns").Observe(int64(i))
			}
		}()
	}
	wg.Wait()
	close(stop)
	readerDone.Wait()

	snap := reg.Snapshot(true)
	if len(snap.Counters) != names || len(snap.Gauges) != names || len(snap.Histograms) != names {
		t.Fatalf("snapshot has %d counters, %d gauges, %d histograms, want %d each",
			len(snap.Counters), len(snap.Gauges), len(snap.Histograms), names)
	}
	for _, cv := range snap.Counters {
		if cv.Value != writers {
			t.Fatalf("counter %s = %d, want %d: a registration was lost", cv.Name, cv.Value, writers)
		}
	}
}

// TestQuantileHighEdges pins quantileHigh on degenerate histograms.
func TestQuantileHighEdges(t *testing.T) {
	empty := HistogramValue{}
	if got := quantileHigh(empty, 0.5); got != 0 {
		t.Errorf("empty histogram p50: got %d, want 0", got)
	}

	single := HistogramValue{
		Count:   5,
		Buckets: []HistBucket{{Low: 4, Count: 5}},
	}
	// Every quantile of a one-bucket histogram is that bucket's upper
	// bound, 2*Low-1.
	for _, q := range []float64{0, 0.5, 1} {
		if got := quantileHigh(single, q); got != 7 {
			t.Errorf("single-bucket q=%g: got %d, want 7", q, got)
		}
	}

	zeroBucket := HistogramValue{
		Count:   3,
		Buckets: []HistBucket{{Low: 0, Count: 3}},
	}
	if got := quantileHigh(zeroBucket, 0.99); got != 0 {
		t.Errorf("zero-bucket q=0.99: got %d, want 0", got)
	}

	two := HistogramValue{
		Count:   10,
		Buckets: []HistBucket{{Low: 1, Count: 9}, {Low: 16, Count: 1}},
	}
	if got := quantileHigh(two, 0); got != 1 {
		t.Errorf("q=0 should land in the first bucket: got %d, want 1", got)
	}
	if got := quantileHigh(two, 1); got != 31 {
		t.Errorf("q=1 should land in the last bucket: got %d, want 31", got)
	}
}

// buildDeterministicRecorder assembles a recorder from fixed inputs,
// registering instruments in scrambled order so the test fails if
// export ordering ever starts tracking registration order.
func buildDeterministicRecorder() *Recorder {
	r := New()
	r.SetMeta("task", "golden")
	r.SetMeta("backend", "test")
	for _, name := range []string{"z.last", "a.first", "m.middle"} {
		for range 3 {
			r.Metrics.Counter(name).Add(int64(len(name)))
		}
	}
	r.Record(
		Span{Proc: "workflow:golden", Track: "parse", Name: "parse:b0", Cat: "operator",
			Tuples: 10, Virtual: Virt{Start: 0, Dur: 2}, HasVirt: true},
		Span{Proc: "workflow:golden", Track: "join", Name: "join:b0", Cat: "operator",
			Tuples: 4, Virtual: Virt{Start: 2, Dur: 1.5}, HasVirt: true},
	)
	r.AddCritical(CriticalRow{Proc: "workflow:golden", Track: "parse", Jobs: 1, Seconds: 2})
	return r
}

// TestWriteMetricsDeterministicGolden pins the deterministic export
// ordering: two independently built recorders must serialize to
// byte-identical output, and that output must match the pinned golden
// (names sorted, meta sorted, no volatile section).
func TestWriteMetricsDeterministicGolden(t *testing.T) {
	var a, b bytes.Buffer
	if err := buildDeterministicRecorder().WriteMetrics(&a, false); err != nil {
		t.Fatal(err)
	}
	if err := buildDeterministicRecorder().WriteMetrics(&b, false); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("WriteMetrics not deterministic:\n--- a ---\n%s\n--- b ---\n%s", a.String(), b.String())
	}

	out := a.String()
	// Ordering pins, cheaper to maintain than a full golden file: meta
	// keys sorted, counter names sorted, volatile section absent.
	iBackend := strings.Index(out, `"backend"`)
	iTask := strings.Index(out, `"task"`)
	if iBackend == -1 || iTask == -1 || iBackend > iTask {
		t.Errorf("meta keys not sorted in output:\n%s", out)
	}
	iA := strings.Index(out, `"a.first"`)
	iM := strings.Index(out, `"m.middle"`)
	iZ := strings.Index(out, `"z.last"`)
	if iA == -1 || iM == -1 || iZ == -1 || !(iA < iM && iM < iZ) {
		t.Errorf("counter names not sorted in output:\n%s", out)
	}
	if strings.Contains(out, `"volatile"`) {
		t.Errorf("deterministic dump leaked the volatile section:\n%s", out)
	}
	wantValues := []string{
		fmt.Sprintf(`"value": %d`, 3*len("a.first")),
		fmt.Sprintf(`"value": %d`, 3*len("m.middle")),
		fmt.Sprintf(`"value": %d`, 3*len("z.last")),
	}
	for _, wv := range wantValues {
		if !strings.Contains(out, wv) {
			t.Errorf("missing %s in output:\n%s", wv, out)
		}
	}
}

// TestWriteSummaryDeterministic pins WriteSummary's ordering on
// wall-free input: byte-identical across two builds, tracks listed by
// self-time, no non-deterministic wall section.
func TestWriteSummaryDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	buildDeterministicRecorder().WriteSummary(&a)
	buildDeterministicRecorder().WriteSummary(&b)
	if a.String() != b.String() {
		t.Fatalf("WriteSummary not deterministic:\n--- a ---\n%s\n--- b ---\n%s", a.String(), b.String())
	}
	out := a.String()
	if !strings.Contains(out, "== telemetry summary") {
		t.Errorf("missing header:\n%s", out)
	}
	iParse := strings.Index(out, "parse")
	iJoin := strings.Index(out, "join")
	if iParse == -1 || iJoin == -1 || iParse > iJoin {
		t.Errorf("tracks not ordered by self-time (parse 2s > join 1.5s):\n%s", out)
	}
	if strings.Contains(out, "wall-clock profile") {
		t.Errorf("wall-free input produced the wall section:\n%s", out)
	}
}
