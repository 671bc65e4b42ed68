package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// span is one interval the benchmark recorded around a call it made
// into a layer. Spans of one op share its Op id; Parent is the id of the
// enclosing span, 0 for an op's root span and for side probes, which
// run after the root has ended.
type span struct {
	ID       int
	Parent   int
	Op       int
	Workload string
	Client   int
	Name     string
	Note     string
	Start    int64 // ns since the tracer's epoch
	End      int64
}

// tracer keeps every span in memory until the benchmark ends; nothing
// is written or aggregated while ops run.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{epoch: telemetry.WallClock()} }

func (t *tracer) now() int64 { return int64(telemetry.WallSince(t.epoch)) }

func (t *tracer) begin(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	s.Start = t.now()
	t.spans = append(t.spans, s)
	return s.ID
}

func (t *tracer) end(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = t.now()
}

// opTrace is one traced op's handle on the tracer. A nil *opTrace is an
// untraced op: span just runs f, so op code has a single path.
type opTrace struct {
	tr       *tracer
	workload string
	client   int
	op       int
	cur      int // enclosing span; 0 once the root has ended
	// rec is the telemetry recorder an in-process op attaches to its
	// runs, created on first use.
	rec *telemetry.Recorder
	// probes are the workflow runs whose layers are re-invoked once the
	// root span has ended.
	probes []probe
}

// startOp opens the root span of a new op.
func (t *tracer) startOp(workload string, client int) *opTrace {
	t.mu.Lock()
	t.ops++
	op := t.ops
	t.mu.Unlock()
	ot := &opTrace{tr: t, workload: workload, client: client, op: op}
	ot.cur = t.begin(span{Op: op, Workload: workload, Client: client, Name: "op"})
	return ot
}

// endOp closes the root span; later spans of the op are side probes.
func (ot *opTrace) endOp() {
	ot.tr.end(ot.cur)
	ot.cur = 0
}

// span times f as a child of the enclosing span.
func (ot *opTrace) span(name, note string, f func()) {
	if ot == nil {
		f()
		return
	}
	parent := ot.cur
	id := ot.tr.begin(span{Parent: parent, Op: ot.op, Workload: ot.workload, Client: ot.client, Name: name, Note: note})
	ot.cur = id
	f()
	ot.tr.end(id)
	ot.cur = parent
}

// covered returns how much of [start, end) the given intervals cover,
// counting overlaps once.
func covered(start, end int64, children []span) int64 {
	sort.Slice(children, func(i, j int) bool { return children[i].Start < children[j].Start })
	var total int64
	at := start
	for _, c := range children {
		lo, hi := c.Start, c.End
		if lo < at {
			lo = at
		}
		if hi > end {
			hi = end
		}
		if hi > lo {
			total += hi - lo
			at = hi
		}
	}
	return total
}

// selfTimes maps each span id to its self time: its duration minus the
// part of that interval its child spans cover.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
	}
	return self
}

// opSpans is one traced op seen through its spans: how long each span
// name ran in total, and the root's duration and self time.
type opSpans struct {
	byName   map[string]float64 // ms
	rootMS   float64
	rootSelf float64 // ms not covered by any top-level span
}

// groupOps folds a workload's spans by op id.
func groupOps(spans []span, workload string) map[int]*opSpans {
	self := selfTimes(spans)
	ops := make(map[int]*opSpans)
	for _, s := range spans {
		if s.Workload != workload {
			continue
		}
		o := ops[s.Op]
		if o == nil {
			o = &opSpans{byName: make(map[string]float64)}
			ops[s.Op] = o
		}
		ms := float64(s.End-s.Start) / 1e6
		if s.Name == "op" {
			o.rootMS = ms
			o.rootSelf = float64(self[s.ID]) / 1e6
			continue
		}
		o.byName[s.Name] += ms
	}
	return ops
}

// chromeEvent is one event of the Chrome trace-event format: a complete
// ("X") event per span, ts and dur in microseconds, and a metadata ("M")
// event naming each process.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChromeTrace writes the spans as Chrome trace-event JSON: one
// process per workload, one thread per client, op ids and self times in
// the args.
func writeChromeTrace(path string, spans []span) error {
	self := selfTimes(spans)
	pids := make(map[string]int)
	events := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		if _, ok := pids[s.Workload]; !ok {
			pids[s.Workload] = len(pids) + 1
			events = append(events, chromeEvent{
				Name: "process_name", Ph: "M", PID: pids[s.Workload],
				Args: map[string]any{"name": s.Workload},
			})
		}
		args := map[string]any{"op": s.Op, "id": s.ID, "parent": s.Parent, "self_us": float64(self[s.ID]) / 1e3}
		if s.Note != "" {
			args["spec"] = s.Note
		}
		events = append(events, chromeEvent{
			Name: s.Name, Cat: s.Workload, Ph: "X",
			TS: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			PID: pids[s.Workload], TID: s.Client, Args: args,
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
