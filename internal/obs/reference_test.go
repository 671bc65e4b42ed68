package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// refStreamEvents is the loop handleEvents ran before streamEvents: an
// id line through fmt.Fprintf and an event boxed into Encode, per
// event.
func refStreamEvents(w http.ResponseWriter, r *http.Request, run eventSource, flusher http.Flusher) {
	var cursor int64
	enc := json.NewEncoder(w)
	for {
		evs, next, dropped, wake, done := run.EventsSince(cursor)
		if dropped > 0 {
			// Drop-oldest backpressure: the ring outran this stream.
			// Tell the client how many events it lost rather than
			// silently skipping the gap.
			fmt.Fprintf(w, "event: dropped\ndata: %d\n\n", dropped)
		}
		for i := range evs {
			fmt.Fprintf(w, "id: %d\ndata: ", evs[i].Seq)
			if err := enc.Encode(evs[i]); err != nil {
				return
			}
			fmt.Fprint(w, "\n")
		}
		if len(evs) > 0 {
			flusher.Flush()
		}
		cursor = next
		if done {
			fmt.Fprintf(w, "event: done\ndata: %q\n\n", run.State())
			flusher.Flush()
			return
		}
		select {
		case <-wake:
		case <-r.Context().Done():
			return
		}
	}
}

// scriptedEvents replays a finished run's events as a stream would
// have seen them: the first part, then, after the ring outran the
// stream by gap events, the rest and the end of the run.
type scriptedEvents struct {
	t          *testing.T
	evs        []Event
	split, gap int
	state      string
	calls      int
}

func (s *scriptedEvents) EventsSince(cursor int64) ([]Event, int64, int64, <-chan struct{}, bool) {
	woken := make(chan struct{})
	close(woken)
	s.calls++
	switch s.calls {
	case 1:
		if cursor != 0 {
			s.t.Fatalf("first read at cursor %d, want 0", cursor)
		}
		return s.evs[:s.split], int64(s.split), 0, woken, false
	case 2:
		if cursor != int64(s.split) {
			s.t.Fatalf("second read at cursor %d, want %d", cursor, s.split)
		}
		return s.evs[s.split+s.gap:], int64(len(s.evs)), int64(s.gap), woken, true
	}
	s.t.Fatalf("read %d of a stream that ended", s.calls)
	return nil, 0, 0, nil, true
}

func (s *scriptedEvents) State() string { return s.state }

// TestStreamEventsMatchesReference streams a DICE-50 workflow run's
// events, with a dropped gap and the done frame, through streamEvents
// and through the loop it replaced, and wants the same bytes.
func TestStreamEventsMatchesReference(t *testing.T) {
	reg := NewRegistry()
	run := reg.StartQueued("dice", "workflow", "t", nil)
	summary, err := executeRun(core.RunSpec{Task: "dice", Paradigm: "workflow", Size: 50, Seed: 1, Workers: 4}, run, telemetry.New())
	if err != nil {
		t.Fatal(err)
	}
	run.Finish(summary, nil)
	evs, _, _, _, done := run.EventsSince(0)
	if !done || len(evs) < 20 {
		t.Fatalf("DICE-50 run: %d events, done %v", len(evs), done)
	}
	stream := func(ref bool) string {
		src := &scriptedEvents{t: t, evs: evs, split: len(evs) / 3, gap: 7, state: run.State()}
		rr := httptest.NewRecorder()
		if ref {
			refStreamEvents(rr, httptest.NewRequest(http.MethodGet, "/", nil), src, rr)
		} else {
			streamEvents(rr, rr, src, nil)
		}
		return rr.Body.String()
	}
	got, want := stream(false), stream(true)
	for _, frame := range []string{"event: dropped\ndata: 7\n\n", "event: done\ndata: \"completed\"\n\n"} {
		if !strings.Contains(want, frame) {
			t.Fatalf("reference stream lacks %q", frame)
		}
	}
	if got != want {
		n := 0
		for n < min(len(got), len(want)) && got[n] == want[n] {
			n++
		}
		t.Fatalf("stream differs from the reference at byte %d of %d: %q vs %q", n, len(want),
			got[max(n-40, 0):min(n+40, len(got))], want[max(n-40, 0):min(n+40, len(want))])
	}
}
