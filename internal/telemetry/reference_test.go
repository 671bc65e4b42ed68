package telemetry

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/sim"
)

// The span storage Recorder replaced, kept as the oracle its records
// are held to: every span a []Span of strings, and ScheduleSpans
// naming each schedule span as it is recorded. The wall-track fold is
// the one Dump inlined.

type refRecorder struct {
	mu    sync.Mutex
	spans []Span
}

// Record appends spans in bulk.
func (r *refRecorder) Record(spans ...Span) {
	if r == nil || len(spans) == 0 {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, spans...)
	r.mu.Unlock()
}

// Spans returns a copy of the recorded spans.
func (r *refRecorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// TrackTotals folds the recorded virtual spans per (proc, track), in
// deterministic (proc, track) order. Wall-only spans are excluded.
func (r *refRecorder) TrackTotals() []TrackTotal {
	spans := r.Spans()
	type key struct{ proc, track string }
	agg := make(map[key]*TrackTotal)
	var order []key
	for i := range spans {
		s := &spans[i]
		if !s.HasVirt {
			continue
		}
		k := key{s.Proc, s.Track}
		t, ok := agg[k]
		if !ok {
			t = &TrackTotal{Proc: s.Proc, Track: s.Track}
			agg[k] = t
			order = append(order, k)
		}
		t.Spans++
		t.SelfSeconds += s.Virtual.Dur
		t.Tuples += s.Tuples
	}
	// Sort keys, then re-fold in sorted span order so the float sums are
	// reproducible regardless of recording order. Spans were appended in
	// a deterministic order by each producer, but two producers may
	// interleave; summing per track keyed off the span slice keeps each
	// track's sum in its own append order, which is deterministic
	// per producer.
	out := make([]TrackTotal, 0, len(order))
	slices.SortFunc(order, func(a, b key) int {
		return cmp.Or(strings.Compare(a.proc, b.proc), strings.Compare(a.track, b.track))
	})
	for _, k := range order {
		out = append(out, *agg[k])
	}
	return out
}

// Procs returns the sorted distinct process labels seen in spans.
func (r *refRecorder) Procs() []string {
	spans := r.Spans()
	seen := make(map[string]bool)
	var out []string
	for i := range spans {
		if !seen[spans[i].Proc] {
			seen[spans[i].Proc] = true
			out = append(out, spans[i].Proc)
		}
	}
	slices.Sort(out)
	return out
}

// wallTracks is the volatile wall-track fold of Dump.
func (r *refRecorder) wallTracks() []WallTotal {
	var wt []WallTotal
	type key struct{ proc, track string }
	agg := make(map[key]*WallTotal)
	var order []key
	for _, s := range r.Spans() {
		if !s.HasWall {
			continue
		}
		k := key{s.Proc, s.Track}
		t, ok := agg[k]
		if !ok {
			t = &WallTotal{Proc: s.Proc, Track: s.Track}
			agg[k] = t
			order = append(order, k)
		}
		t.Spans++
		t.BusyMS += float64(s.Clock.DurNS) / 1e6
	}
	slices.SortFunc(order, func(a, b key) int {
		return cmp.Or(strings.Compare(a.proc, b.proc), strings.Compare(a.track, b.track))
	})
	for _, k := range order {
		wt = append(wt, *agg[k])
	}
	return wt
}

// refScheduleSpans appends to dst one virtual-clock span per job of sched
// that consumed time, in job order, then one "recovery" span per killed
// attempt, in kill order, named "<job>:killed#<attempt>" and covering
// the time the attempt held its slot. lane gives the track, category
// and span name of the job at position i; it is called only for jobs
// that get a span. An abort's job ID is read as its position in jobs:
// both lowerings (dataflow.Lower and raysim's Run) number their jobs
// 0..n-1.
func refScheduleSpans(dst []Span, proc string, jobs []sim.Job, sched *sim.Result, lane func(i int) (track, cat, name string)) []Span {
	for i := range jobs {
		if jobs[i].Cost <= 0 {
			continue // barrier and end-of-stream bookkeeping jobs
		}
		track, cat, name := lane(i)
		sp := sched.Spans[i]
		dst = append(dst, Span{
			Proc: proc, Track: track, Name: name, Cat: cat,
			HasVirt: true,
			Virtual: Virt{Start: sp.Start, Dur: sp.Finish - sp.Start},
		})
	}
	for _, ab := range sched.Aborts {
		track, _, name := lane(int(ab.Job))
		dst = append(dst, Span{
			Proc: proc, Track: track,
			Name:    fmt.Sprintf("%s:killed#%d", name, ab.Attempt),
			Cat:     "recovery",
			HasVirt: true,
			Virtual: Virt{Start: ab.Start, Dur: ab.Killed - ab.Start},
		})
	}
	return dst
}

// refBatchName is the batch-span formatter dataflow's job metadata
// carried (jobMeta.batchName).
func refBatchName(node string, port, seq int) string {
	if port < 0 {
		return node + ":gen:b" + strconv.Itoa(seq)
	}
	return node + ":p" + strconv.Itoa(port) + ":b" + strconv.Itoa(seq)
}
