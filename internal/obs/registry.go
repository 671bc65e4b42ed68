// Package obs is the live observability plane: a run registry that
// watches core runs while they execute, and the HTTP introspection
// server plus EXPLAIN-style profiles built on top of it. The paper's
// central usability claim is that the GUI workflow paradigm shows its
// users what is happening while a job runs and the script paradigm
// does not; this package is the reproduction's version of that GUI
// surface, fed by the same progress events and telemetry instruments
// both engines already emit. Everything here is observer-side: a run
// with no registry attached pays nothing beyond a nil check.
package obs

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/paged"
	"repro/internal/telemetry"
)

const (
	// eventRingSize bounds the per-run progress-event ring. A DICE-size
	// workflow run emits a few thousand batch events; the ring keeps the
	// recent window and the totals keep the truth.
	eventRingSize = 8192
	// sampleRingSize bounds the per-run time-series ring.
	sampleRingSize = 512
	// eventPage and samplePage are the records per page of the two
	// rings (paged.Store), each sized to fill an allocator size class:
	// 256 48-byte eventRecs are 12,288 bytes and 128 112-byte Samples
	// 14,336, each a class of its own. Neither record holds a pointer,
	// so a page carries no allocation header and the collector never
	// scans it. A run's first page grows by append, so a run that
	// publishes little holds little.
	eventPage  = 256
	samplePage = 128
	// sampleMinInterval is the minimum wall time between event-driven
	// samples, so a hot emit loop cannot turn sampling into the
	// bottleneck it is meant to watch.
	sampleMinInterval = 25 * time.Millisecond
	// keepCompleted bounds how many finished runs the registry retains.
	keepCompleted = 64
)

// Event is one progress event as a stream reads it: the engine's
// payload plus a monotonic sequence number and a wall stamp relative
// to the registry epoch. The ring keeps it as an eventRec.
type Event struct {
	Seq    int64 `json:"seq"`
	WallNS int64 `json:"wall_ns"`
	telemetry.ProgressEvent
}

// Sample is one point of a run's time series: process-level runtime
// stats plus aggregates folded from the run's recorder's registry
// (queue depths, tuple/batch throughput, lineage reuse, recovery). On
// a server every run shares one recorder, so these include the counts
// of every earlier run.
// VirtSeconds carries the latest simulator stamp seen on the event
// stream, tying the wall-clock series back to the sim clock.
type Sample struct {
	WallNS        int64   `json:"wall_ns"`
	VirtSeconds   float64 `json:"virt_seconds,omitempty"`
	Events        int64   `json:"events"`
	Tuples        int64   `json:"tuples,omitempty"`
	Batches       int64   `json:"batches,omitempty"`
	QueueDepth    int64   `json:"queue_depth,omitempty"`
	QueueDepthMax int64   `json:"queue_depth_max,omitempty"`
	LineageHits   int64   `json:"lineage_hits,omitempty"`
	LineageMisses int64   `json:"lineage_misses,omitempty"`
	RecoveryKills int64   `json:"recovery_kills,omitempty"`
	Goroutines    int     `json:"goroutines"`
	HeapAlloc     uint64  `json:"heap_alloc"`
	HeapSys       uint64  `json:"heap_sys"`
	NumGC         uint32  `json:"num_gc"`
}

// OpStatus is the latest known state of one operator / cell / task,
// the per-operator row a workflow GUI keeps permanently on screen.
type OpStatus struct {
	Op        string  `json:"op"`
	Kind      string  `json:"kind,omitempty"`
	State     string  `json:"state"`
	InTuples  int64   `json:"in_tuples,omitempty"`
	OutTuples int64   `json:"out_tuples,omitempty"`
	Workers   int     `json:"workers,omitempty"`
	UpdatedNS int64   `json:"updated_ns"`
	VirtSec   float64 `json:"virt_seconds,omitempty"`
}

// Registry tracks every in-flight and completed run the process has
// started. It is safe for concurrent use; the HTTP server reads it
// while engines publish into it.
type Registry struct {
	epoch time.Time

	mu     sync.Mutex
	nextID int
	runs   map[string]*Run
	order  []string // insertion order, oldest first

	started   int64
	completed int64
	failed    int64
}

// NewRegistry creates an empty run registry whose wall epoch is now.
func NewRegistry() *Registry {
	return &Registry{
		epoch: telemetry.WallClock(),
		runs:  make(map[string]*Run),
	}
}

// nowNS is the registry's wall stamp: nanoseconds since its epoch.
func (g *Registry) nowNS() int64 { return int64(telemetry.WallSince(g.epoch)) }

// StartQueued registers a run waiting in the service queue and returns
// its handle, which implements telemetry.ProgressSink (==
// core.ProgressSink) so it can be attached directly to a RunConfig; it
// turns live via MarkRunning when the scheduler dispatches it. tenant
// attributes it for fair-share accounting. rec is the run's telemetry
// recorder; it may be shared across runs and may be nil.
func (g *Registry) StartQueued(task, paradigm, tenant string, rec *telemetry.Recorder) *Run {
	g.mu.Lock()
	g.nextID++
	g.started++
	r := &Run{
		ID:       fmt.Sprintf("r%04d", g.nextID),
		Task:     task,
		Paradigm: paradigm,
		Tenant:   tenant,
		reg:      g,
		rec:      rec,
		state:    "queued",
		startNS:  g.nowNS(),
		ops:      make(map[string]int),
		events:   paged.New[eventRec](eventPage),
		samples:  paged.New[Sample](samplePage),
	}
	g.runs[r.ID] = r
	g.order = append(g.order, r.ID)
	g.evict()
	g.mu.Unlock()
	r.sampleLocked(r.startNS) // seed the series with a starting point
	return r
}

// Remove forgets a run that never started executing — the rollback
// path when service admission rejects a just-registered submission. It
// declines to remove a run that has begun running.
func (g *Registry) Remove(id string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	r, ok := g.runs[id]
	if !ok {
		return false
	}
	r.mu.Lock()
	queued := r.state == "queued"
	r.mu.Unlock()
	if !queued {
		return false
	}
	delete(g.runs, id)
	for i, oid := range g.order {
		if oid == id {
			g.order = append(g.order[:i], g.order[i+1:]...)
			break
		}
	}
	g.started--
	return true
}

// evict drops the oldest finished runs beyond the retention cap.
// Callers hold g.mu.
func (g *Registry) evict() {
	finished := 0
	for _, id := range g.order {
		if g.runs[id].isFinished() {
			finished++
		}
	}
	if finished <= keepCompleted {
		return
	}
	kept := g.order[:0]
	for _, id := range g.order {
		if finished > keepCompleted && g.runs[id].isFinished() {
			delete(g.runs, id)
			finished--
			continue
		}
		kept = append(kept, id)
	}
	g.order = kept
}

// Run looks up a run by ID.
func (g *Registry) Run(id string) (*Run, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	r, ok := g.runs[id]
	return r, ok
}

// Runs returns all known runs, oldest first.
func (g *Registry) Runs() []*Run {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]*Run, 0, len(g.order))
	for _, id := range g.order {
		out = append(out, g.runs[id])
	}
	return out
}

// Counts reports lifetime run counts (started, completed, failed).
func (g *Registry) Counts() (started, completed, failed int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.started, g.completed, g.failed
}

// Run is one tracked execution. It implements telemetry.ProgressSink:
// the engines publish into it live, and HTTP handlers read events,
// operator status and the sampled time series out of it.
type Run struct {
	ID       string
	Task     string
	Paradigm string
	Tenant   string

	reg *Registry
	rec *telemetry.Recorder

	mu      sync.Mutex
	state   string // "queued", "running", "completed", "failed"
	errMsg  string
	notes   map[string]string
	startNS int64
	endNS   int64

	seq     int64                             // total events ever published
	dropped int64                             // events slow streamers lost to ring eviction
	events  paged.Store[eventRec]             // ring: grows to eventRingSize, then wraps
	strs    []string                          // distinct Task, Paradigm, Kind and State values, indexed by eventRec
	wide    map[int64]telemetry.ProgressEvent // by Seq: retained events no record could hold
	ops     map[string]int                    // each op's position in opOrder
	opOrder []*OpStatus                       // per-operator status, first seen first; an eventRec's op is a position plus one
	notify  chan struct{}                     // made by EventsSince, closed and cleared by the next change

	samples      paged.Store[Sample] // ring: grows to sampleRingSize, then wraps
	nSamples     int64               // total samples ever taken
	lastSampleNS int64
	virtNow      float64

	summary map[string]float64 // final scalar results, set by Finish
}

// Publish implements telemetry.ProgressSink. It stamps the event,
// stores it in the ring, folds it into the per-operator status table,
// opportunistically samples the time series, and wakes SSE streams.
func (r *Run) Publish(ev telemetry.ProgressEvent) { r.publishAt(r.reg.nowNS(), ev) }

// publishAt is Publish with the wall stamp now.
func (r *Run) publishAt(now int64, ev telemetry.ProgressEvent) {
	r.mu.Lock()
	op := 0
	if ev.Op != "" {
		i, ok := r.ops[ev.Op]
		if !ok {
			i = len(r.opOrder)
			r.ops[ev.Op] = i
			r.opOrder = append(r.opOrder, &OpStatus{Op: ev.Op})
		}
		op = i + 1
		st := r.opOrder[i]
		if ev.Kind != "" {
			st.Kind = ev.Kind
		}
		if ev.State != "" && ev.State != "progress" { // "progress" updates the counters only
			st.State = ev.State
		}
		if ev.InTuples > 0 {
			st.InTuples = ev.InTuples
		}
		if ev.OutTuples > 0 {
			st.OutTuples = ev.OutTuples
		}
		if ev.Workers > 0 {
			st.Workers = ev.Workers
		}
		if ev.VirtSeconds > 0 {
			st.VirtSec = ev.VirtSeconds
		}
		st.UpdatedNS = now
	}
	r.putEvent(now, ev, op)
	r.seq++
	if ev.VirtSeconds > r.virtNow {
		r.virtNow = ev.VirtSeconds
	}
	if now-r.lastSampleNS >= int64(sampleMinInterval) {
		r.sampleAt(now)
	}
	r.unlockAndWake()
}

// eventRec is one retained event, stored as compactly as the ring can
// hold it, in 48 bytes and no pointer: its Seq is its position in the
// ring; Task, Paradigm, Kind and State, of which a run has a handful of
// distinct values, are indices into the run's strs table; and Op, which
// a script run has one of per cell or task, is its position in the
// run's opOrder table plus one, or 0 for none.
type eventRec struct {
	wallNS    int64
	inTuples  int64
	outTuples int64
	virtSec   float64
	workers   int32
	op        uint16
	task      uint8
	paradigm  uint8
	kind      uint8
	state     uint8
}

// wideRec as an eventRec's task marks an event that has a string past
// the strs table's index width, an op past the 65,535th, or a worker
// count past int32: r.wide holds its payload until the ring overwrites
// its record.
const wideRec = math.MaxUint8

// putEvent stores ev, stamped now, as the r.seq-th event; op is its
// Op's position in opOrder plus one, or 0 for none. Callers hold r.mu.
func (r *Run) putEvent(now int64, ev telemetry.ProgressEvent, op int) {
	rec := eventRec{
		wallNS:    now,
		inTuples:  ev.InTuples,
		outTuples: ev.OutTuples,
		virtSec:   ev.VirtSeconds,
		workers:   int32(ev.Workers),
		op:        uint16(op),
		task:      r.intern(ev.Task),
		paradigm:  r.intern(ev.Paradigm),
		kind:      r.intern(ev.Kind),
		state:     r.intern(ev.State),
	}
	if max(rec.task, rec.paradigm, rec.kind, rec.state) == wideRec || int(rec.workers) != ev.Workers || int(rec.op) != op {
		rec.task = wideRec
		if r.wide == nil {
			r.wide = make(map[int64]telemetry.ProgressEvent)
		}
		r.wide[r.seq] = ev
	}
	slot := r.events.Slot(r.seq, eventRingSize)
	if slot.task == wideRec {
		delete(r.wide, r.seq-eventRingSize) // its record is about to be overwritten
	}
	*slot = rec
}

// intern returns s's index in the strs table, adding it if it is new,
// or wideRec once the table is full. Callers hold r.mu.
func (r *Run) intern(s string) uint8 {
	for i, t := range r.strs {
		if t == s {
			return uint8(i)
		}
	}
	if len(r.strs) == wideRec {
		return wideRec
	}
	r.strs = append(r.strs, s)
	return uint8(len(r.strs) - 1)
}

// eventAt rebuilds the retained event seq from its record. Callers hold
// r.mu.
func (r *Run) eventAt(seq int64) Event {
	rec := r.events.At(int(seq % eventRingSize))
	e := Event{Seq: seq, WallNS: rec.wallNS}
	if rec.task == wideRec {
		e.ProgressEvent = r.wide[seq]
		return e
	}
	e.ProgressEvent = telemetry.ProgressEvent{
		Task:        r.strs[rec.task],
		Paradigm:    r.strs[rec.paradigm],
		Kind:        r.strs[rec.kind],
		State:       r.strs[rec.state],
		InTuples:    rec.inTuples,
		OutTuples:   rec.outTuples,
		Workers:     int(rec.workers),
		VirtSeconds: rec.virtSec,
	}
	if rec.op > 0 {
		e.Op = r.opOrder[rec.op-1].Op
	}
	return e
}

// unlockAndWake releases r.mu and, if a streamer took a wake channel
// from EventsSince since the last change, closes it. Callers hold r.mu.
func (r *Run) unlockAndWake() {
	ch := r.notify
	r.notify = nil
	r.mu.Unlock()
	if ch != nil {
		close(ch)
	}
}

// sampleLocked takes a sample while acquiring the run lock itself.
func (r *Run) sampleLocked(now int64) {
	r.mu.Lock()
	r.sampleAt(now)
	r.unlockAndWake()
}

// sampleAt appends one time-series point. Callers hold r.mu.
func (r *Run) sampleAt(now int64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := Sample{
		WallNS:      now,
		VirtSeconds: r.virtNow,
		Events:      r.seq,
		Goroutines:  runtime.NumGoroutine(),
		HeapAlloc:   ms.HeapAlloc,
		HeapSys:     ms.HeapSys,
		NumGC:       ms.NumGC,
	}
	if r.rec != nil {
		s.fold(r.rec.Metrics)
	}
	*r.samples.Slot(r.nSamples, sampleRingSize) = s
	r.nSamples++
	r.lastSampleNS = now
}

// fold aggregates the registry's counters and gauges into the sample's
// scalar series by name suffix, the naming scheme the engines use
// (wf.<wf>.exec.*, lineage.<scope>.*, *.recovery.kills).
func (s *Sample) fold(reg *telemetry.Registry) {
	reg.Visit(func(name string, v int64) {
		switch {
		case strings.HasSuffix(name, "exec.tuples"):
			s.Tuples += v
		case strings.HasSuffix(name, "exec.batches"):
			s.Batches += v
		case strings.HasPrefix(name, "lineage.") && strings.HasSuffix(name, ".hits"):
			s.LineageHits += v
		case strings.HasPrefix(name, "lineage.") && strings.HasSuffix(name, ".misses"):
			s.LineageMisses += v
		case strings.HasSuffix(name, "recovery.kills"):
			s.RecoveryKills += v
		}
	}, func(name string, last, hi int64) {
		if strings.HasSuffix(name, "exec.queue_depth") {
			s.QueueDepth += last
			s.QueueDepthMax = max(s.QueueDepthMax, hi)
		}
	})
}

// Finish marks the run done. summary carries final scalar results
// (sim_seconds, quality metrics); err marks the run failed.
func (r *Run) Finish(summary map[string]float64, err error) {
	now := r.reg.nowNS()
	r.mu.Lock()
	if r.isFinishedLocked() {
		r.mu.Unlock()
		return
	}
	if err != nil {
		r.state = "failed"
		r.errMsg = err.Error()
	} else {
		r.state = "completed"
	}
	r.endNS = now
	r.summary = summary
	r.sampleAt(now)
	r.unlockAndWake()

	r.reg.mu.Lock()
	if err != nil {
		r.reg.failed++
	} else {
		r.reg.completed++
	}
	r.reg.mu.Unlock()
}

func (r *Run) isFinishedLocked() bool {
	return r.state == "completed" || r.state == "failed"
}

func (r *Run) isFinished() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.isFinishedLocked()
}

// State returns the run's lifecycle state.
func (r *Run) State() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state
}

// MarkRunning transitions a queued run to running — the scheduler's
// dispatch moment. It is a no-op for runs already live or finished.
func (r *Run) MarkRunning() {
	r.mu.Lock()
	if r.state != "queued" {
		r.mu.Unlock()
		return
	}
	r.state = "running"
	r.unlockAndWake()
}

// SetNote attaches a small string fact to the run (output digests,
// scheduling stamps); notes appear in Info.
func (r *Run) SetNote(key, value string) {
	r.mu.Lock()
	if r.notes == nil {
		r.notes = make(map[string]string)
	}
	r.notes[key] = value
	r.mu.Unlock()
}

// Note reads one note back; empty when unset.
func (r *Run) Note(key string) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.notes[key]
}

// Recorder returns the run's telemetry recorder (may be nil).
func (r *Run) Recorder() *telemetry.Recorder { return r.rec }

// EventsSince rebuilds into buf the retained events with Seq >= cursor,
// oldest first and at most len(buf) of them (older events may have
// been evicted from the ring — the copy starts at the oldest retained
// event), and returns how many it wrote and the cursor to read from
// next. buf must not be empty; r.mu is held for one buf of events.
//
// A read that stops at len(buf) with events left returns a nil wake,
// and the caller reads on. A read that drains the ring returns done,
// when the run has finished and no further events will come, or else a
// wake channel that is closed the next time anything is published.
//
// dropped counts events the caller asked for that the ring had already
// overwritten — the drop-oldest backpressure a slow streamer pays
// instead of stalling publishers. A fresh attach (cursor 0) catches up
// from the retained tail without counting the history as drops; the
// per-run total accumulates into Info's dropped_events.
func (r *Run) EventsSince(cursor int64, buf []Event) (n int, next, dropped int64, wake <-chan struct{}, done bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	lo := max(cursor, r.seq-eventRingSize, 0)
	if cursor > 0 && lo > cursor {
		dropped = lo - cursor
		r.dropped += dropped
	}
	lo = min(lo, r.seq)
	n = int(min(r.seq-lo, int64(len(buf))))
	for i := range buf[:n] {
		buf[i] = r.eventAt(lo + int64(i))
	}
	next = lo + int64(n)
	switch {
	case next < r.seq:
		return n, next, dropped, nil, false
	case r.isFinishedLocked():
		return n, next, dropped, nil, true
	}
	if r.notify == nil {
		r.notify = make(chan struct{})
	}
	return n, next, dropped, r.notify, false
}

// DroppedEvents returns the run's cumulative drop-oldest count across
// all event streams.
func (r *Run) DroppedEvents() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Ops returns the per-operator status table in first-seen order.
func (r *Run) Ops() []OpStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]OpStatus, 0, len(r.opOrder))
	for _, st := range r.opOrder {
		out = append(out, *st)
	}
	return out
}

// Samples returns the retained time series, oldest first.
func (r *Run) Samples() []Sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	lo := r.nSamples - sampleRingSize
	if lo < 0 {
		lo = 0
	}
	out := make([]Sample, 0, r.nSamples-lo)
	for i := lo; i < r.nSamples; i++ {
		out = append(out, *r.samples.At(int(i % sampleRingSize)))
	}
	return out
}

// Info is the JSON shape of one run in /v1/runs listings.
type Info struct {
	ID            string             `json:"id"`
	Task          string             `json:"task"`
	Paradigm      string             `json:"paradigm,omitempty"`
	Tenant        string             `json:"tenant,omitempty"`
	State         string             `json:"state"`
	Error         string             `json:"error,omitempty"`
	StartWallNS   int64              `json:"start_wall_ns"`
	EndWallNS     int64              `json:"end_wall_ns,omitempty"`
	Events        int64              `json:"events"`
	DroppedEvents int64              `json:"dropped_events,omitempty"`
	Operators     int                `json:"operators"`
	VirtSeconds   float64            `json:"virt_seconds,omitempty"`
	Summary       map[string]float64 `json:"summary,omitempty"`
	Notes         map[string]string  `json:"notes,omitempty"`
}

// Info snapshots the run's listing row.
func (r *Run) Info() Info {
	r.mu.Lock()
	defer r.mu.Unlock()
	in := Info{
		ID:            r.ID,
		Task:          r.Task,
		Paradigm:      r.Paradigm,
		Tenant:        r.Tenant,
		State:         r.state,
		Error:         r.errMsg,
		StartWallNS:   r.startNS,
		EndWallNS:     r.endNS,
		Events:        r.seq,
		DroppedEvents: r.dropped,
		Operators:     len(r.opOrder),
		VirtSeconds:   r.virtNow,
	}
	if len(r.summary) > 0 {
		in.Summary = make(map[string]float64, len(r.summary))
		for k, v := range r.summary {
			in.Summary[k] = v
		}
	}
	if len(r.notes) > 0 {
		in.Notes = make(map[string]string, len(r.notes))
		for k, v := range r.notes {
			in.Notes[k] = v
		}
	}
	return in
}

// Detail is the JSON shape of /v1/runs/{id}: the listing row plus the
// operator table and sampled time series.
type Detail struct {
	Info
	Ops     []OpStatus `json:"ops,omitempty"`
	Samples []Sample   `json:"samples,omitempty"`
}

// Detail snapshots the run's full introspection view.
func (r *Run) Detail() Detail {
	d := Detail{Info: r.Info(), Ops: r.Ops(), Samples: r.Samples()}
	return d
}
