package obs

import (
	"testing"
	"time"

	"repro/internal/telemetry"
)

// A run's rings grow on demand and then wrap: a run that publishes a
// few events holds a few, and one that publishes more than the ring
// holds keeps the newest eventRingSize, oldest first, while a streamer
// whose cursor fell behind the ring is told how many it lost.
func TestEventRingGrowsThenDropsOldest(t *testing.T) {
	r := NewRegistry().StartQueued("kge", "workflow", "", nil)
	for range 50 {
		r.Publish(telemetry.ProgressEvent{})
	}
	if n := len(r.events); n != 50 || cap(r.events) >= eventRingSize {
		t.Fatalf("after 50 events the ring holds %d in room for %d, want 50 in less than %d", n, cap(r.events), eventRingSize)
	}
	evs, next, dropped, _, _ := r.EventsSince(0)
	if len(evs) != 50 || next != 50 || dropped != 0 {
		t.Fatalf("fresh attach: %d events, next %d, dropped %d; want 50, 50, 0", len(evs), next, dropped)
	}

	const total = eventRingSize + 100
	for range total - 50 {
		r.Publish(telemetry.ProgressEvent{})
	}
	if n := len(r.events); n != eventRingSize {
		t.Fatalf("after %d events the ring holds %d, want %d", total, n, eventRingSize)
	}
	for _, c := range []struct {
		cursor, wantDropped int64
	}{
		{next, 100 - next}, // a streamer that read the first 50
		{0, 0},             // a fresh attach: history is not a drop
		{total - 10, 0},    // a streamer that is nearly caught up
	} {
		evs, next, dropped, _, _ := r.EventsSince(c.cursor)
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

func TestSampleRingGrowsThenDropsOldest(t *testing.T) {
	r := NewRegistry().StartQueued("kge", "workflow", "", nil)
	const total = sampleRingSize + 10
	for i := range int64(total) {
		r.sampleLocked(i)
		if i == 9 && cap(r.samples) >= sampleRingSize {
			t.Fatalf("after 10 samples the ring has room for %d", cap(r.samples))
		}
	}
	got := r.Samples()
	if len(got) != sampleRingSize {
		t.Fatalf("%d samples retained, want %d", len(got), sampleRingSize)
	}
	for i, s := range got {
		if want := int64(total - sampleRingSize + i); s.WallNS != want {
			t.Fatalf("sample %d taken at %d, want %d", i, s.WallNS, want)
		}
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
		_, _, _, wake, _ := r.EventsSince(0)
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
