package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/pipeline"
	"repro/internal/planopt"
)

// PlanReport is one task's static plan-validation result.
type PlanReport struct {
	Task      string          `json:"task"`
	Workers   int             `json:"workers"`
	Operators int             `json:"operators"`
	Edges     int             `json:"edges"`
	Diags     []dataflow.Diag `json:"diags,omitempty"`
	// Rewrites holds the optimizer's OPT0xx decision diagnostics when
	// the config runs with Optimize set; they explain the plan, they
	// are not failures. Applied counts the rewrites actually made.
	Rewrites []dataflow.Diag `json:"rewrites,omitempty"`
	Applied  int             `json:"applied,omitempty"`
}

// ValidatePlans builds every registered task's workflow DAG at the
// config's scale and runs the static plan validator over each — the
// editor-side composition check Texera performs before a workflow may
// execute, applied to all four reproduction tasks at once. Workers is
// forced above one so the partitioning and checkpoint rules are
// exercised. The error return covers harness problems (a task that
// cannot be built); plan problems land in the per-task Diags.
func ValidatePlans(cfg Config) ([]PlanReport, error) {
	cfg = cfg.normalize()
	rc := cfg.RunConfig
	if rc.Workers < 2 {
		rc.Workers = 2
	}
	rc, err := rc.Normalize()
	if err != nil {
		return nil, err
	}
	var out []PlanReport
	for _, name := range core.TaskNames() {
		task, err := traceTask(name, cfg)
		if err != nil {
			return nil, err
		}
		d, ok := task.(pipeline.Declaration)
		if !ok {
			return nil, fmt.Errorf("experiments: task %q does not expose a workflow plan", name)
		}
		w, err := d.Plan(rc)
		if err != nil {
			return nil, fmt.Errorf("experiments: task %q: building plan: %w", name, err)
		}
		rep := PlanReport{
			Task:      name,
			Workers:   rc.Workers,
			Operators: w.NumOperators(),
			Edges:     w.NumEdges(),
			Diags:     dataflow.Validate(w),
		}
		if rc.Optimize && len(rep.Diags) == 0 {
			// Static optimize of the plan being validated: the rewrites
			// and their explanations are part of the plan inspection.
			opt, err := planopt.Optimize(w, planopt.ConfigOptions(rc))
			if err != nil {
				return nil, fmt.Errorf("experiments: task %q: optimizing plan: %w", name, err)
			}
			rep.Rewrites = opt.Diags
			rep.Applied = opt.Applied
			rep.Operators = w.NumOperators()
			rep.Edges = w.NumEdges()
		}
		out = append(out, rep)
	}
	return out, nil
}
