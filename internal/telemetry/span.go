package telemetry

import (
	"cmp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/paged"
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
//
// A span is stored as a spanRec: no strings, only indices into the
// recorder's lane and name tables, so the collector never scans the
// storage. Records fill fixed pages of spanPage (paged.Store), each
// allocated once and never copied. Spans formats the names when a
// trace is read.
type Recorder struct {
	// Metrics is the recorder's instrument registry.
	Metrics *Registry

	mu       sync.Mutex
	epoch    time.Time
	recs     paged.Store[spanRec]
	lanes    []laneKey
	laneIdx  map[laneKey]Lane
	names    []string
	nameIdx  map[string]int32
	meta     map[string]string
	critical []CriticalRow
}

// Lane is an interned (proc, track, cat) triple of one recorder: every
// span of a lane shares its process, display track and category.
type Lane int32

type laneKey struct{ proc, track, cat string }

// nameKind says how a stored span's name is formed when it is read.
type nameKind uint8

const (
	// nameFree is an interned free-form name: names[spanRec.name].
	nameFree nameKind = iota
	// nameBatch is a data batch, formatted by BatchLabel from the
	// lane's track, the port (-1 for a source's generated batch) and
	// the sequence number.
	nameBatch
	// nameWall is "<track>:wall", a node's wall-clock busy span.
	nameWall
)

// spanRec flags.
const (
	flagVirt   uint8 = 1 << iota // virt is set
	flagWall                     // wall is set
	flagKilled                   // the name gains ":killed#<attempt>"
)

// spanPage is the records per page of a recorder's span store: 64 KiB
// of 64-byte records, an allocation with no size-class slack.
const spanPage = 1024

// spanRec is one stored span. It holds no pointer, and it is at most
// 64 bytes (TestSpanRecIsSmallAndPointerFree).
type spanRec struct {
	virt    Virt
	wall    Wall
	tuples  int64
	lane    Lane
	name    int32 // index into names, for nameFree
	seq     int32
	worker  int32
	attempt int32 // the killed attempt, with flagKilled
	port    int16
	kind    nameKind
	flags   uint8
}

// New creates a Recorder whose wall epoch is "now", read through the
// wall-clock shim (wallclock.go) so span.go itself stays clean under
// the determinism linter.
func New() *Recorder {
	return &Recorder{
		Metrics: NewRegistry(), epoch: WallClock(), meta: make(map[string]string),
		recs:    paged.New[spanRec](spanPage),
		laneIdx: make(map[laneKey]Lane), nameIdx: make(map[string]int32),
	}
}

// NowNS returns nanoseconds since the recorder's epoch — the wall
// stamp instrumented code records.
func (r *Recorder) NowNS() int64 {
	return int64(WallSince(r.epoch))
}

// Lane interns the (proc, track, cat) triple. A nil recorder returns 0.
func (r *Recorder) Lane(proc, track, cat string) Lane {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lane(laneKey{proc, track, cat})
}

// lane interns k; r.mu is held.
func (r *Recorder) lane(k laneKey) Lane {
	l, ok := r.laneIdx[k]
	if !ok {
		l = Lane(len(r.lanes))
		r.lanes = append(r.lanes, k)
		r.laneIdx[k] = l
	}
	return l
}

// name interns a free-form span name; r.mu is held.
func (r *Recorder) name(s string) int32 {
	i, ok := r.nameIdx[s]
	if !ok {
		i = int32(len(r.names))
		r.names = append(r.names, s)
		r.nameIdx[s] = i
	}
	return i
}

// Record appends spans in bulk, interning each one's strings. Worker
// must fit in an int32.
func (r *Recorder) Record(spans ...Span) {
	if r == nil || len(spans) == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.recs.Grow(len(spans))
	for i := range spans {
		s := &spans[i]
		rec := spanRec{
			virt: s.Virtual, wall: s.Clock, tuples: s.Tuples,
			lane: r.lane(laneKey{s.Proc, s.Track, s.Cat}), name: r.name(s.Name),
			worker: int32(s.Worker),
		}
		if s.HasVirt {
			rec.flags |= flagVirt
		}
		if s.HasWall {
			rec.flags |= flagWall
		}
		r.recs.Append(rec)
	}
}

// RecordWall appends one wall-clock span named "<track>:wall" on lane
// l: worker's busy time on its track, over tuples batches.
func (r *Recorder) RecordWall(l Lane, worker int, tuples int64, clock Wall) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.recs.Append(spanRec{
		wall: clock, tuples: tuples, lane: l, worker: int32(worker),
		kind: nameWall, flags: flagWall,
	})
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

// Len returns how many spans the recorder holds, formatting none.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.recs.Len()
}

// Spans returns the recorded spans in recording order, their names
// formatted.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, r.recs.Len())
	for i, rec := range r.recs.All() {
		l := &r.lanes[rec.lane]
		out[i] = Span{
			Proc: l.proc, Track: l.track, Name: r.nameOf(rec, l.track), Cat: l.cat,
			Worker: int(rec.worker), Tuples: rec.tuples,
			Virtual: rec.virt, HasVirt: rec.flags&flagVirt != 0,
			Clock: rec.wall, HasWall: rec.flags&flagWall != 0,
		}
	}
	return out
}

// nameOf formats a stored span's name; r.mu is held.
func (r *Recorder) nameOf(rec *spanRec, track string) string {
	var name string
	switch rec.kind {
	case nameBatch:
		name = BatchLabel(track, int(rec.port), int(rec.seq))
	case nameWall:
		name = track + ":wall"
	default:
		name = r.names[rec.name]
	}
	if rec.flags&flagKilled != 0 {
		name += ":killed#" + strconv.Itoa(int(rec.attempt))
	}
	return name
}

// BatchLabel names the span of batch seq of input port on track, or of
// a source's generated batch seq when port is negative. It is the one
// formatter of batch span names.
func BatchLabel(track string, port, seq int) string {
	if port < 0 {
		return track + ":gen:b" + strconv.Itoa(seq)
	}
	return track + ":p" + strconv.Itoa(port) + ":b" + strconv.Itoa(seq)
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
	sums := r.sumTracks(false)
	out := make([]TrackTotal, len(sums))
	for i, t := range sums {
		out[i] = TrackTotal{Proc: t.proc, Track: t.track, Spans: t.spans, SelfSeconds: t.sum, Tuples: t.tuples}
	}
	return out
}

// trackSum is one (proc, track)'s fold over its virtual or its wall
// spans.
type trackSum struct {
	proc, track string
	spans       int
	sum         float64 // virtual seconds, or wall milliseconds
	tuples      int64
}

// sumTracks folds the spans with a virtual stamp (with wall, those with
// a wall stamp) per (proc, track), in (proc, track) order. Each track
// sums its spans in recording order: every producer records in a
// deterministic order, so the float sums are reproducible however two
// producers interleave.
func (r *Recorder) sumTracks(wall bool) []trackSum {
	flag := flagVirt
	if wall {
		flag = flagWall
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	type key struct{ proc, track string }
	idx := make(map[key]int)
	var sums []trackSum
	for _, rec := range r.recs.All() {
		if rec.flags&flag == 0 {
			continue
		}
		l := &r.lanes[rec.lane]
		j, ok := idx[key{l.proc, l.track}]
		if !ok {
			j = len(sums)
			idx[key{l.proc, l.track}] = j
			sums = append(sums, trackSum{proc: l.proc, track: l.track})
		}
		t := &sums[j]
		t.spans++
		if wall {
			t.sum += float64(rec.wall.DurNS) / 1e6
		} else {
			t.sum += rec.virt.Dur
			t.tuples += rec.tuples
		}
	}
	slices.SortFunc(sums, func(a, b trackSum) int {
		return cmp.Or(strings.Compare(a.proc, b.proc), strings.Compare(a.track, b.track))
	})
	return sums
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
	r.mu.Lock()
	defer r.mu.Unlock()
	seen := make([]bool, len(r.lanes))
	var out []string
	for _, rec := range r.recs.All() {
		if l := rec.lane; !seen[l] {
			seen[l] = true
			out = append(out, r.lanes[l].proc)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}
