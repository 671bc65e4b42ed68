package obs

import (
	"bytes"
	"io"
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// A run's rings grow on demand and then wrap: a run that publishes a
// few events holds a few records, and one that publishes more than the
// ring holds keeps the newest eventRingSize, oldest first, while a
// streamer whose cursor fell behind the ring is told how many it lost.
// A full ring's pages leave less than one page empty.
func TestEventRingGrowsThenDropsOldest(t *testing.T) {
	r := NewRegistry().StartQueued("kge", "workflow", "", nil)
	for range 50 {
		r.Publish(telemetry.ProgressEvent{})
	}
	if n := r.events.Len(); n != 50 || r.events.Cap() > eventPage {
		t.Fatalf("after 50 events the ring holds %d in room for %d, want 50 in at most one page of %d", n, r.events.Cap(), eventPage)
	}
	buf := make([]Event, eventRingSize)
	n, next, dropped, _, _ := r.EventsSince(0, buf)
	if n != 50 || next != 50 || dropped != 0 {
		t.Fatalf("fresh attach: %d events, next %d, dropped %d; want 50, 50, 0", n, next, dropped)
	}

	const total = eventRingSize + 100
	for range total - 50 {
		r.Publish(telemetry.ProgressEvent{})
	}
	if n, c := r.events.Len(), r.events.Cap(); n != eventRingSize || c-n >= eventPage {
		t.Fatalf("after %d events the ring holds %d in room for %d, want %d with less than a page of %d empty", total, n, c, eventRingSize, eventPage)
	}
	for _, c := range []struct {
		cursor, wantDropped int64
	}{
		{next, 100 - next}, // a streamer that read the first 50
		{0, 0},             // a fresh attach: history is not a drop
		{total - 10, 0},    // a streamer that is nearly caught up
	} {
		n, next, dropped, _, _ := r.EventsSince(c.cursor, buf)
		evs := buf[:n]
		first := max(c.cursor, total-eventRingSize)
		if next != total || dropped != c.wantDropped || int64(len(evs)) != total-first {
			t.Fatalf("cursor %d: %d events, next %d, dropped %d; want %d, %d, %d",
				c.cursor, len(evs), next, dropped, total-first, total, c.wantDropped)
		}
		for i, e := range evs {
			if e.Seq != first+int64(i) {
				t.Fatalf("cursor %d: event %d has seq %d, want %d", c.cursor, i, e.Seq, first+int64(i))
			}
		}
	}
	if got := r.DroppedEvents(); got != 50 {
		t.Fatalf("dropped events = %d, want 50", got)
	}
}

// A "progress" event moves an operator's counters, not its state: a
// running operator reads running, with the newest counts, after the
// counter events the executor publishes per batch.
func TestProgressEventKeepsOpState(t *testing.T) {
	r := NewRegistry().StartQueued("dice", "workflow", "", nil)
	r.Publish(telemetry.ProgressEvent{Op: "f", Kind: "operator", State: "running", Workers: 2})
	r.Publish(telemetry.ProgressEvent{Op: "f", State: "progress", InTuples: 40, OutTuples: 30})
	ops := r.Ops()
	if len(ops) != 1 {
		t.Fatalf("%d operators, want 1", len(ops))
	}
	if op := ops[0]; op.State != "running" || op.InTuples != 40 || op.OutTuples != 30 || op.Workers != 2 {
		t.Fatalf("operator status %+v, want running with 40 in, 30 out and 2 workers", op)
	}
}

// The sample ring keeps what ringPut's slice kept, oldest first, while
// it fills its first page, crosses into later ones, and wraps twice.
func TestSampleRingGrowsThenDropsOldest(t *testing.T) {
	r := NewRegistry().StartQueued("kge", "workflow", "", nil)
	// StartQueued took sample 0 at the run's start; the test's stamps
	// follow it.
	ref := ringPut(nil, 0, sampleRingSize, r.Samples()[0].WallNS)
	const total = 2*sampleRingSize + 77
	for i := int64(1); i < total; i++ {
		r.sampleLocked(i)
		ref = ringPut(ref, i, sampleRingSize, i)
		if i == 9 && r.samples.Cap() > samplePage {
			t.Fatalf("after 10 samples the ring has room for %d, more than a page of %d", r.samples.Cap(), samplePage)
		}
		if i%97 != 0 && i != total-1 {
			continue
		}
		var want []int64
		for j := max(i+1-sampleRingSize, 0); j <= i; j++ {
			want = append(want, ref[j%sampleRingSize])
		}
		got := r.Samples()
		walls := make([]int64, len(got))
		for k := range got {
			walls[k] = got[k].WallNS
		}
		if !slices.Equal(walls, want) {
			t.Fatalf("after %d samples the ring holds %v, want %v", i+1, walls, want)
		}
	}
	if n, c := r.samples.Len(), r.samples.Cap(); n != sampleRingSize || c != sampleRingSize {
		t.Fatalf("a full ring holds %d samples in room for %d, want %d in as many", n, c, sampleRingSize)
	}
}

// A streamer waiting on the channel EventsSince returned is woken by
// each change a stream shows: an event, the run going live and the run
// finishing. A run nobody streams makes no wake channel.
func TestEventsSinceWakesOnEveryChange(t *testing.T) {
	r := NewRegistry().StartQueued("dice", "workflow", "", nil)
	r.Publish(telemetry.ProgressEvent{})
	if r.notify != nil {
		t.Fatal("a run nobody streams made a wake channel")
	}
	for _, c := range []struct {
		name   string
		change func()
	}{
		{"Publish", func() { r.Publish(telemetry.ProgressEvent{}) }},
		{"MarkRunning", r.MarkRunning},
		{"Finish", func() { r.Finish(nil, nil) }},
	} {
		_, _, _, wake, _ := r.EventsSince(0, make([]Event, eventChunk))
		woke := make(chan struct{})
		go func() {
			<-wake
			close(woke)
		}()
		c.change()
		select {
		case <-woke:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s did not wake a streamer waiting on EventsSince's channel", c.name)
		}
	}
}

// A stream that follows a run published from several goroutines at
// once reads every event, in Seq order and a chunk at a time, and ends
// with the run.
func TestStreamFollowsConcurrentPublishers(t *testing.T) {
	r := NewRegistry().StartQueued("dice", "workflow", "", nil)
	r.MarkRunning()
	const publishers, each = 4, 1000
	var out bytes.Buffer
	streamed := make(chan struct{})
	go func() {
		defer close(streamed)
		streamEvents(&out, nopFlusher{}, r, nil)
	}()
	var wg sync.WaitGroup
	for p := range publishers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			op := "op" + strconv.Itoa(p)
			for i := range each {
				r.Publish(telemetry.ProgressEvent{Op: op, State: "progress", InTuples: int64(i)})
			}
		}()
	}
	wg.Wait()
	r.Finish(nil, nil)
	select {
	case <-streamed:
	case <-time.After(10 * time.Second):
		t.Fatal("the stream did not end with the run")
	}
	var seq int
	for _, line := range strings.Split(out.String(), "\n") {
		if id, ok := strings.CutPrefix(line, "id: "); ok {
			if id != strconv.Itoa(seq) {
				t.Fatalf("frame %d has id %s", seq, id)
			}
			seq++
		}
	}
	if seq != publishers*each || !strings.HasSuffix(out.String(), "event: done\ndata: \"completed\"\n\n") {
		t.Fatalf("streamed %d of %d events, ending %q", seq, publishers*each, out.String()[max(out.Len()-40, 0):])
	}
}

// TestEventRecIsPointerFree holds the retained event to what makes the
// ring cheap: at most 48 bytes, under two fifths of an Event, and no
// field the collector must scan, so an event page is a noscan object
// with no allocation header.
func TestEventRecIsPointerFree(t *testing.T) {
	if size := unsafe.Sizeof(eventRec{}); size > 48 {
		t.Errorf("eventRec is %d bytes, want at most 48", size)
	}
	typ := reflect.TypeOf(eventRec{})
	for i := 0; i < typ.NumField(); i++ {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Float64:
		default:
			t.Errorf("eventRec.%s is a %s, which holds a pointer or has no fixed width", f.Name, f.Type.Kind())
		}
	}
}

// TestEventOpsPastIndexWidth publishes more distinct ops than an
// eventRec's op index holds: the events past it keep their ops, their
// payloads held out of record, and the ones before it need none.
func TestEventOpsPastIndexWidth(t *testing.T) {
	const n = math.MaxUint16 + 3
	run := NewRegistry().StartQueued("gotta", "script", "", nil)
	for i := range n {
		run.publishAt(0, telemetry.ProgressEvent{Op: "task-" + strconv.Itoa(i), State: "running"})
	}
	if want := n - math.MaxUint16; len(run.wide) != want {
		t.Errorf("%d out-of-record payloads, want %d: one per op past the %dth", len(run.wide), want, math.MaxUint16)
	}
	evs := make([]Event, 8)
	got, _, _, _, _ := run.EventsSince(n-6, evs)
	if got != 6 {
		t.Fatalf("read %d of the last 6 events", got)
	}
	for _, e := range evs[:got] {
		if want := "task-" + strconv.Itoa(int(e.Seq)); e.Op != want || e.State != "running" {
			t.Errorf("event %d: op %q, state %q; want %q, running", e.Seq, e.Op, e.State, want)
		}
	}
	if ops := run.Ops(); len(ops) != n || ops[n-1].Op != "task-"+strconv.Itoa(n-1) {
		t.Errorf("%d ops in the status table, want %d", len(ops), n)
	}
}

// nopFlusher stands in for the http.Flusher of a response that
// io.Discard writes.
type nopFlusher struct{}

func (nopFlusher) Flush() {}

// TestServedRunEventsAllocBudget publishes a DICE-50 workflow run's
// events into a fresh Run, as a served run receives them (its samples
// folding the run's recorder), and streams them through streamEvents
// to io.Discard. Its 1,692 events take 113,200 bytes in 64 heap
// objects, the ring's seven noscan pages among them, of a 118,000-byte
// budget; with each record holding its op as a string, so that every
// page was scanned and 146 records were the most an 8 KiB class held,
// they took 122,152 bytes in 69; with the ring regrown by append
// 0.36 MB in 57; and with each event stored whole and every read
// copying the backlog into a fresh slice 1.53 MB in 113. Under the
// race detector encoding/json's sync.Pool drops encoders at random, so
// the objects read 3.3-3.8 k either way: a race build skips the byte
// budget and holds objects to 5,000, which an object per event still
// breaks.
func TestServedRunEventsAllocBudget(t *testing.T) {
	const byteBudget = 118_000
	objBudget := uint64(80)
	bi, ok := debug.ReadBuildInfo()
	race := ok && slices.ContainsFunc(bi.Settings, func(s debug.BuildSetting) bool { return s.Key == "-race" && s.Value == "true" })
	if race {
		objBudget = 5_000
	}
	reg := NewRegistry()
	rec := telemetry.New()
	src := reg.StartQueued("dice", "workflow", "t", nil)
	if _, err := executeRun(core.RunSpec{Task: "dice", Paradigm: "workflow", Size: 50, Seed: 1, Workers: 4}, src, rec); err != nil {
		t.Fatal(err)
	}
	evs := make([]Event, eventRingSize)
	n, _, _, _, _ := src.EventsSince(0, evs)
	evs = evs[:n]
	measure := func() (bytes, objects uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run := reg.StartQueued("dice", "workflow", "t", rec)
		for i := range evs {
			run.Publish(evs[i].ProgressEvent)
		}
		run.Finish(nil, nil)
		streamEvents(io.Discard, nopFlusher{}, run, nil)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
	}
	measure() // warm-up: lazy initialisation is not the run's cost
	bytes, objects := measure()
	t.Logf("publishing and streaming %d events allocated %d bytes of a %d budget in %d objects of %d", len(evs), bytes, byteBudget, objects, objBudget)
	if !race && bytes > byteBudget {
		t.Errorf("publishing and streaming %d events allocated %d bytes, budget %d", len(evs), bytes, byteBudget)
	}
	if objects > objBudget {
		t.Errorf("publishing and streaming %d events allocated %d objects, budget %d", len(evs), objects, objBudget)
	}
}
