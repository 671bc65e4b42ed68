package core

import (
	"repro/internal/cost"
	"repro/internal/lineage"
	"repro/internal/telemetry"
)

// Option attaches a live object to a RunConfig under construction: a
// cost model, a recorder, a lineage store or a progress sink, which a
// RunSpec cannot carry. A scalar knob is a plain field, on RunSpec or on
// a copied RunConfig. Options stay because benchmark/ passes them to
// RunSpec.Config and NewRunConfig.
type Option func(*RunConfig)

// WithModel sets the cost model; nil keeps cost.Default().
func WithModel(m *cost.Model) Option {
	return func(c *RunConfig) { c.Model = m }
}

// WithTelemetry attaches a recorder to the run.
func WithTelemetry(rec *telemetry.Recorder) Option {
	return func(c *RunConfig) { c.Telemetry = rec }
}

// WithLineage attaches a versioned artifact store, arming incremental
// re-execution. Pass the same store across successive runs of a task to
// model the edit-and-rerun loop.
func WithLineage(s *lineage.Store) Option {
	return func(c *RunConfig) { c.Lineage = s }
}

// WithProgress attaches a live progress sink (typically an obs run
// registry handle); engines publish per-operator events into it while
// the run executes.
func WithProgress(sink ProgressSink) Option {
	return func(c *RunConfig) { c.Progress = sink }
}

// NewRunConfig builds and normalizes a RunConfig from attachments.
func NewRunConfig(opts ...Option) (RunConfig, error) {
	var c RunConfig
	for _, opt := range opts {
		opt(&c)
	}
	return c.Normalize()
}
