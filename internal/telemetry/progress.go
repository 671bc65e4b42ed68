package telemetry

// ProgressEvent is one live observation of a run's execution — the
// per-operator progress a GUI workflow surface shows for free and a
// script surface does not (the paper's visibility asymmetry, made
// concrete). The dataflow engine publishes events while operators are
// genuinely in flight; the script backend can only stamp its events
// after the Ray schedule is computed, because virtual task times do
// not exist until then. Observability consumers (the obs run registry,
// its SSE stream) receive both through the same interface.
type ProgressEvent struct {
	// Task and Paradigm identify the run the event belongs to. Engines
	// fill what they know; the run registry completes the rest.
	Task     string `json:"task,omitempty"`
	Paradigm string `json:"paradigm,omitempty"`
	// Op names the operator, notebook cell, or Ray task the event
	// describes; empty for run-level events.
	Op string `json:"op,omitempty"`
	// Kind classifies Op: "source", "operator", "sink", "cell", "task".
	Kind string `json:"kind,omitempty"`
	// State is the operator lifecycle state: "initializing",
	// "running", "completed", "failed" or "cancelled". "progress" is not
	// a state: it marks a counter update, whose tuple counts are new
	// and whose operator keeps the state it had.
	State string `json:"state"`
	// InTuples and OutTuples are the operator's cumulative tuple
	// counters at the time of the event (the paper-Figure-9 numbers).
	InTuples  int64 `json:"in_tuples,omitempty"`
	OutTuples int64 `json:"out_tuples,omitempty"`
	// Workers is the operator's parallelism when known.
	Workers int `json:"workers,omitempty"`
	// VirtSeconds stamps the event on the simulator's virtual clock
	// when known. Live workflow events carry zero (the schedule that
	// assigns virtual times is computed at the end of the run); script
	// events are published post-schedule and carry their task's virtual
	// finish time.
	VirtSeconds float64 `json:"virt_seconds,omitempty"`
}

// ProgressSink receives live progress events from an executing run.
// Publish must be safe for concurrent use and must not block: engine
// workers call it inline. A nil sink (the default) keeps every engine
// on its unobserved fast path — the only cost is one nil check.
type ProgressSink interface {
	Publish(ev ProgressEvent)
}
