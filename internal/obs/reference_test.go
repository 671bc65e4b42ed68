package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/xrand"
)

// refStreamEvents is the loop handleEvents ran before streamEvents: an
// id line through fmt.Fprintf and an event boxed into Encode, per
// event, and the whole retained backlog per read.
func refStreamEvents(w http.ResponseWriter, r *http.Request, run eventSource, flusher http.Flusher) {
	var cursor int64
	enc := json.NewEncoder(w)
	buf := make([]Event, eventRingSize)
	for {
		n, next, dropped, wake, done := run.EventsSince(cursor, buf)
		evs := buf[:n]
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
// have seen them, a buffer at a time: the first part, then, after the
// ring outran the stream by gap events, the rest and the end of the
// run.
type scriptedEvents struct {
	t          *testing.T
	evs        []Event
	split, gap int
	state      string
	ended      bool
}

func (s *scriptedEvents) EventsSince(cursor int64, buf []Event) (int, int64, int64, <-chan struct{}, bool) {
	if s.ended || cursor < 0 || cursor > int64(len(s.evs)) {
		s.t.Fatalf("read at cursor %d of a stream of %d events that ended %v", cursor, len(s.evs), s.ended)
	}
	lo, end, dropped := int(cursor), s.split, int64(0)
	if lo >= s.split {
		end = len(s.evs)
	}
	if lo == s.split {
		lo += s.gap
		dropped = int64(s.gap)
	}
	n := copy(buf, s.evs[lo:end])
	switch {
	case lo+n < end:
		return n, int64(lo + n), dropped, nil, false
	case end == len(s.evs):
		s.ended = true
		return n, int64(lo + n), dropped, nil, true
	}
	woken := make(chan struct{})
	close(woken)
	return n, int64(lo + n), dropped, woken, false
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
	evs := make([]Event, eventRingSize)
	n, _, _, _, done := run.EventsSince(0, evs)
	evs = evs[:n]
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

// refRun is the event ring Run kept before an event became a compact
// record read back in chunks: each Event stored whole, Seq included,
// and the whole retained backlog copied into a fresh slice per read.
// (Its wake channel is left out: the oracle is never waited on.) Its
// ring is the append-grown slice of ringPut, which both of Run's rings
// used before they were paged.
type refRun struct {
	seq      int64
	dropped  int64
	events   []Event
	finished bool
}

// ringPut stores x as the n-th item ever put in a ring of size slots
// and returns the ring. It grows the ring on demand, so a run that
// publishes little holds little, and once the ring holds size items it
// overwrites the oldest: item i is always at ring[i%size].
func ringPut[T any](ring []T, n int64, size int, x T) []T {
	if len(ring) < size {
		return append(ring, x)
	}
	ring[n%int64(size)] = x
	return ring
}

func (r *refRun) publishAt(now int64, ev telemetry.ProgressEvent) {
	e := Event{Seq: r.seq, WallNS: now, ProgressEvent: ev}
	r.events = ringPut(r.events, r.seq, eventRingSize, e)
	r.seq++
}

func (r *refRun) EventsSince(cursor int64) (evs []Event, next, dropped int64, done bool) {
	lo := cursor
	if min := r.seq - eventRingSize; lo < min {
		lo = min
	}
	if lo < 0 {
		lo = 0
	}
	if cursor > 0 && lo > cursor {
		dropped = lo - cursor
		r.dropped += dropped
	}
	for i := lo; i < r.seq; i++ {
		evs = append(evs, r.events[i%eventRingSize])
	}
	return evs, r.seq, dropped, r.finished
}

// FuzzEventRingMatchesReference publishes one generated event sequence
// to a Run and to refRun — past eventRingSize, and with strings drawn
// from a pool that can outgrow the strs table's index width (and gives
// a run more distinct ops than a byte could index) and worker counts
// past int32 — and reads both back at random cursors, the Run a
// random-sized buffer at a time. It wants the same events, next cursor,
// drops and done, and the Run's out-of-record payloads bounded by the
// ring.
func FuzzEventRingMatchesReference(f *testing.F) {
	f.Add(uint64(1), uint16(300), uint16(eventRingSize+500), "dice")
	f.Add(uint64(2), uint16(4), uint16(2*eventRingSize+77), "")
	f.Add(uint64(3), uint16(2000), uint16(900), "x\x00é")
	f.Fuzz(func(t *testing.T, seed uint64, distinct, total uint16, base string) {
		rng := xrand.New(seed)
		pool := make([]string, int(distinct)%700+1)
		for i := range pool {
			lo := rng.Intn(len(base) + 1)
			pool[i] = base[lo : lo+rng.Intn(len(base)-lo+1)]
			if rng.Bool(0.8) {
				pool[i] += strconv.Itoa(i)
			}
		}
		pick := func() string { return pool[rng.Intn(len(pool))] }
		run := NewRegistry().StartQueued("fuzz", "workflow", "", nil)
		ref := &refRun{}
		check := func(cursor int64) {
			want, wantNext, wantDropped, wantDone := ref.EventsSince(cursor)
			buf := make([]Event, 1+rng.Intn(100))
			var got []Event
			var dropped int64
			at := cursor
			for {
				n, next, d, wake, done := run.EventsSince(at, buf)
				got = append(got, buf[:n]...)
				dropped += d
				at = next
				if wake != nil || done {
					if done != wantDone {
						t.Fatalf("cursor %d: done %v, want %v", cursor, done, wantDone)
					}
					break
				}
				if n != len(buf) {
					t.Fatalf("cursor %d: a read of %d events into a buffer of %d left more to read", cursor, n, len(buf))
				}
			}
			if !slices.Equal(got, want) || at != wantNext || dropped != wantDropped {
				t.Fatalf("cursor %d: %d events to next %d, %d dropped; want %d to %d, %d dropped",
					cursor, len(got), at, dropped, len(want), wantNext, wantDropped)
			}
			if got, want := run.DroppedEvents(), ref.dropped; got != want {
				t.Fatalf("cursor %d: DroppedEvents %d, want %d", cursor, got, want)
			}
		}
		n := int(total) % (2*eventRingSize + 600)
		finishAt := rng.Intn(n + 1)
		for i := range n {
			if i == finishAt {
				run.Finish(nil, nil)
				ref.finished = true
			}
			workers := rng.Intn(64)
			if rng.Bool(0.01) {
				workers = int(rng.Uint64())
			}
			ev := telemetry.ProgressEvent{
				Task: pick(), Paradigm: pick(), Op: pick(), Kind: pick(), State: pick(),
				InTuples: int64(rng.Uint64()), OutTuples: int64(rng.Uint64()),
				Workers: workers, VirtSeconds: rng.Float64() * 100,
			}
			// Wall stamps under sampleMinInterval keep sampling out of the loop.
			wall := int64(rng.Intn(int(sampleMinInterval)))
			run.publishAt(wall, ev)
			ref.publishAt(wall, ev)
			if rng.Intn(500) == 0 {
				check(int64(rng.Intn(int(ref.seq) + 2)))
			}
		}
		check(0)
		check(max(ref.seq-eventRingSize-int64(rng.Intn(50)), 1))
		if len(run.wide) > eventRingSize {
			t.Fatalf("%d out-of-record payloads for a ring of %d", len(run.wide), eventRingSize)
		}
		for seq := range run.wide {
			if seq < run.seq-eventRingSize {
				t.Fatalf("payload of event %d outlived its record (%d published)", seq, run.seq)
			}
		}
	})
}

// foldSnapshot is how sampleAt folded the recorder's registry before
// Sample.fold: over a sorted Snapshot(true), built per sample.
func foldSnapshot(s *Sample, snap telemetry.MetricsSnapshot) {
	for _, c := range snap.Counters {
		switch {
		case strings.HasSuffix(c.Name, "exec.tuples"):
			s.Tuples += c.Value
		case strings.HasSuffix(c.Name, "exec.batches"):
			s.Batches += c.Value
		case strings.HasPrefix(c.Name, "lineage.") && strings.HasSuffix(c.Name, ".hits"):
			s.LineageHits += c.Value
		case strings.HasPrefix(c.Name, "lineage.") && strings.HasSuffix(c.Name, ".misses"):
			s.LineageMisses += c.Value
		case strings.HasSuffix(c.Name, "recovery.kills"):
			s.RecoveryKills += c.Value
		}
	}
	for _, gv := range snap.Gauges {
		if strings.HasSuffix(gv.Name, "exec.queue_depth") {
			s.QueueDepth += gv.Last
			if gv.Max > s.QueueDepthMax {
				s.QueueDepthMax = gv.Max
			}
		}
	}
}

// TestSampleFoldMatchesReference folds a registry holding every
// instrument kind — counters and gauges under each suffix sampleAt
// folds, look-alike names it must not, histograms under folded
// suffixes and a name registered as both a counter and a gauge —
// through Sample.fold and through foldSnapshot, and wants the same
// sample.
func TestSampleFoldMatchesReference(t *testing.T) {
	reg := telemetry.NewRegistry()
	for name, v := range map[string]int64{
		"wf.dice.exec.tuples":        7100,
		"wf.kge.exec.tuples":         340,
		"wf.dice.exec.batches":       41,
		"wf.kge.exec.batches":        9,
		"lineage.dice.hits":          3,
		"lineage.kge.hits":           4,
		"lineage.dice.misses":        5,
		"nb.dice.hits":               100, // a hit outside lineage.
		"lineage.dice.misses_total":  100,
		"wf.dice.recovery.kills":     2,
		"ray.kge.recovery.kills":     6,
		"nb.dice.cells_run":          9,
		"both.exec.queue_depth":      11,
		"wf.dice.exec.tuples.per_op": 100,
	} {
		reg.Counter(name).Add(v)
	}
	for name, levels := range map[string][]int64{
		"wf.dice.exec.queue_depth": {3, 17, 5},
		"wf.kge.exec.queue_depth":  {40, 2},
		"both.exec.queue_depth":    {90},
		"wf.dice.exec.tuples":      {1000}, // already a counter
		"wf.wef.exec.batches.g":    {7},
		"other.level":              {99},
	} {
		g := reg.Gauge(name)
		for _, v := range levels {
			g.Set(v)
		}
	}
	reg.Histogram("wf.dice.exec.queue_depth.hist", "count").Observe(500)
	reg.Histogram("lat.exec.tuples", "ns").Observe(12345)

	var got, want Sample
	got.fold(reg)
	foldSnapshot(&want, reg.Snapshot(true))
	if got != want {
		t.Fatalf("fold %+v, want %+v", got, want)
	}
	if want.Tuples == 0 || want.Batches == 0 || want.LineageHits == 0 || want.LineageMisses == 0 ||
		want.RecoveryKills == 0 || want.QueueDepth == 0 || want.QueueDepthMax == 0 {
		t.Fatalf("reference fold left a series at zero: %+v", want)
	}
}
