package telemetry

import (
	"cmp"
	"slices"
	"strings"
	"sync"
	"time"
)

// Virt is a virtual-clock interval in simulated seconds. Virtual
// timestamps come from the discrete-event simulator (or the notebook
// kernel's virtual clock) and are deterministic for a deterministic
// run.
type Virt struct {
	Start float64 `json:"start"`
	Dur   float64 `json:"dur"`
}

// Wall is a wall-clock interval in nanoseconds since the recorder's
// epoch. Wall timestamps are profiling data only: they vary run to run
// and are omitted from deterministic exports.
type Wall struct {
	StartNS int64 `json:"start_ns"`
	DurNS   int64 `json:"dur_ns"`
}

// Span is one recorded execution interval, dual-stamped where both
// clocks are known. Dataflow operator invocations carry virtual stamps
// (from the schedule); notebook cells carry both; per-node wall spans
// carry only wall stamps.
type Span struct {
	// Proc groups spans into a trace process, conventionally
	// "<paradigm>:<task>" (for example "workflow:dice").
	Proc string
	// Track is the display lane group within the process: an operator
	// name, "ray-cpus", or "kernel".
	Track string
	// Name labels the individual span (for example "parse:p0:b3").
	Name string
	// Cat classifies the span: "source", "operator", "sink", "control",
	// "task", "cell", or "wall".
	Cat string
	// Worker is the worker/slot index when known, else 0.
	Worker int
	// Tuples is the data volume the span processed, 0 if unknown.
	Tuples int64

	Virtual Virt
	HasVirt bool
	Clock   Wall
	HasWall bool
}

// CriticalRow attributes a slice of the critical path to one track.
type CriticalRow struct {
	Proc    string  `json:"proc"`
	Track   string  `json:"track"`
	Jobs    int     `json:"jobs"`
	Seconds float64 `json:"seconds"`
}

// Recorder collects spans, metadata and critical-path rows alongside a
// metrics registry. All methods are safe for concurrent use; span
// recording takes one short mutex and is meant for bulk or per-cell
// recording, while the per-batch hot path goes through the registry's
// atomic instruments and per-caller wall accumulators instead.
type Recorder struct {
	// Metrics is the recorder's instrument registry.
	Metrics *Registry

	mu       sync.Mutex
	epoch    time.Time
	spans    []Span
	meta     map[string]string
	critical []CriticalRow
}

// New creates a Recorder whose wall epoch is "now", read through the
// wall-clock shim (wallclock.go) so span.go itself stays clean under
// the determinism linter.
func New() *Recorder {
	return &Recorder{Metrics: NewRegistry(), epoch: WallClock(), meta: make(map[string]string)}
}

// NowNS returns nanoseconds since the recorder's epoch — the wall
// stamp instrumented code records.
func (r *Recorder) NowNS() int64 {
	return int64(WallSince(r.epoch))
}

// Record appends spans in bulk.
func (r *Recorder) Record(spans ...Span) {
	if r == nil || len(spans) == 0 {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, spans...)
	r.mu.Unlock()
}

// SetMeta stores one metadata key/value (task, paradigm, makespan…).
// Values must be deterministic: metadata appears in deterministic
// exports.
func (r *Recorder) SetMeta(key, value string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.meta[key] = value
	r.mu.Unlock()
}

// AddCritical appends critical-path attribution rows.
func (r *Recorder) AddCritical(rows ...CriticalRow) {
	if r == nil || len(rows) == 0 {
		return
	}
	r.mu.Lock()
	r.critical = append(r.critical, rows...)
	r.mu.Unlock()
}

// Spans returns a copy of the recorded spans.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// Critical returns a copy of the recorded critical-path rows.
func (r *Recorder) Critical() []CriticalRow {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]CriticalRow(nil), r.critical...)
}

// Meta returns a copy of the metadata map.
func (r *Recorder) Meta() map[string]string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]string, len(r.meta))
	for k, v := range r.meta {
		out[k] = v
	}
	return out
}

// TrackTotal aggregates one track's virtual-clock spans.
type TrackTotal struct {
	Proc  string `json:"proc"`
	Track string `json:"track"`
	Spans int    `json:"spans"`
	// SelfSeconds is the summed virtual duration of the track's spans —
	// the operator's busy time on the simulated cluster.
	SelfSeconds float64 `json:"self_seconds"`
	Tuples      int64   `json:"tuples,omitempty"`
}

// TrackTotals folds the recorded virtual spans per (proc, track), in
// deterministic (proc, track) order. Wall-only spans are excluded.
func (r *Recorder) TrackTotals() []TrackTotal {
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

// TopSelfTime returns the n largest tracks of one process by self
// time, ties broken by track name.
func (r *Recorder) TopSelfTime(proc string, n int) []TrackTotal {
	totals := r.TrackTotals()
	var filtered []TrackTotal
	for _, t := range totals {
		if t.Proc == proc {
			filtered = append(filtered, t)
		}
	}
	slices.SortFunc(filtered, func(a, b TrackTotal) int {
		return cmp.Or(cmp.Compare(b.SelfSeconds, a.SelfSeconds), strings.Compare(a.Track, b.Track))
	})
	if n > 0 && len(filtered) > n {
		filtered = filtered[:n]
	}
	return filtered
}

// Procs returns the sorted distinct process labels seen in spans.
func (r *Recorder) Procs() []string {
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
