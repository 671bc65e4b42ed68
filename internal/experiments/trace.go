package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/lineage"
	"repro/internal/telemetry"

	// The four task packages register themselves with the core task
	// registry; importing them here is what makes them runnable by
	// name throughout the experiment harness and the CLI.
	_ "repro/internal/tasks/dice"
	_ "repro/internal/tasks/gotta"
	_ "repro/internal/tasks/kge"
	_ "repro/internal/tasks/wef"
)

// traceTask builds the named task at the config's scale, using each
// task's registered paper-scale baseline size (the largest Figure 13
// point).
func traceTask(name string, cfg Config) (core.Task, error) {
	size, err := core.TaskDefaultSize(name)
	if err != nil {
		return nil, err
	}
	return core.NewTask(name, cfg.scaled(size), cfg.Seed)
}

// Trace runs one task under both paradigms with telemetry attached and
// returns the recorder holding both runs' spans and metrics, so the
// script and workflow executions of the same workload can be compared
// side by side in one Chrome trace. The recorder's virtual-clock data
// is deterministic; wall-clock data varies run to run.
func Trace(name string, cfg Config) (*telemetry.Recorder, error) {
	return trace(name, cfg, false)
}

// TraceLineage is Trace with a versioned artifact store armed: each
// paradigm runs twice against the same store, so the second pass's
// cache hits, commits and invalidation events show up as lineage spans
// and counters in the recorder.
func TraceLineage(name string, cfg Config) (*telemetry.Recorder, error) {
	return trace(name, cfg, true)
}

func trace(name string, cfg Config, withLineage bool) (*telemetry.Recorder, error) {
	cfg = cfg.normalize()
	task, err := traceTask(name, cfg)
	if err != nil {
		return nil, err
	}
	rec := telemetry.New()
	rc := cfg.RunConfig
	rc.Telemetry = rec
	if withLineage {
		if rc.Lineage, err = lineage.NewStore(cfg.Model, 0); err != nil {
			return nil, err
		}
		// Populate pass: the runs that matter are the warm ones below.
		if _, _, err := core.RunBoth(task, rc); err != nil {
			return nil, err
		}
	}
	s, w, err := core.RunBoth(task, rc)
	if err != nil {
		return nil, err
	}
	rec.SetMeta("task", name)
	rec.SetMeta("script.sim_seconds", fmt.Sprintf("%.6f", s.SimSeconds))
	rec.SetMeta("workflow.sim_seconds", fmt.Sprintf("%.6f", w.SimSeconds))
	rec.SetMeta("outputs_agree", fmt.Sprintf("%v", s.Output.Equal(w.Output)))
	return rec, nil
}
