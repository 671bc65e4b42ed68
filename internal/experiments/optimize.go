package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/pipeline"
	"repro/internal/planopt"
	"repro/internal/relation"
)

// ---------------------------------------------------------------------------
// E15 — optimizer on/off sweep: the cost-based plan rewriter as a pure
// performance knob.
//
// Every task's workflow runs twice per topology — hand-authored plan
// versus the same plan after `-optimize` — and the experiment asserts
// the optimizer's contract the hard way: the two output digests must be
// bit-identical, at the legacy tier and on a sharded topology, or the
// sweep fails. What may legitimately differ is the schedule, so each
// row reports both makespans plus how many rewrites the optimizer
// applied and rejected (each one carries an OPT0xx diagnostic naming
// the operator and the reason).

// OptimizeNodes is the node-count sweep: the legacy paper cluster and
// one sharded topology, so the exchange-choice pass has a tier to act
// on.
var OptimizeNodes = []int{1, 4}

// OptimizeRow is one (task, nodes) cell of the optimizer sweep.
type OptimizeRow struct {
	Task    string `json:"task"`
	Nodes   int    `json:"nodes"`
	Workers int    `json:"workers"`
	// Off and On are workflow makespans in simulated seconds without
	// and with the optimizer.
	Off float64 `json:"off_seconds"`
	On  float64 `json:"on_seconds"`
	// Applied and Rejected count the optimizer's rewrite decisions.
	Applied  int `json:"applied"`
	Rejected int `json:"rejected"`
	// Digest is the (shared) output digest; DigestsEqual records the
	// bit-equality assertion that already gated this row's existence.
	Digest       uint64 `json:"digest"`
	DigestsEqual bool   `json:"digests_equal"`
	// Rewrites holds the applied rewrites' diagnostics (rejections are
	// elided here; `repro validate -optimize` shows everything).
	Rewrites []dataflow.Diag `json:"rewrites,omitempty"`
}

// OptimizerSweep runs E15: all four tasks at each node count, workflow
// paradigm, optimizer off versus on. A digest mismatch is a hard error,
// not a row annotation — the optimizer is allowed to change schedules,
// never bytes.
func OptimizerSweep(cfg Config) ([]OptimizeRow, error) {
	cfg = cfg.normalize()
	var out []OptimizeRow
	for _, name := range core.TaskNames() {
		for _, nodes := range OptimizeNodes {
			workers := 8
			rcOff, err := cfg.RunConfig.With(
				core.WithWorkers(workers),
				core.WithNodes(nodes),
				core.WithOptimize(false),
			)
			if err != nil {
				return nil, err
			}
			rcOn, err := rcOff.With(core.WithOptimize(true))
			if err != nil {
				return nil, err
			}

			taskOff, err := traceTask(name, cfg)
			if err != nil {
				return nil, err
			}
			off, err := taskOff.Run(core.Workflow, rcOff)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s optimizer off: %w", name, err)
			}
			taskOn, err := traceTask(name, cfg)
			if err != nil {
				return nil, err
			}
			on, err := taskOn.Run(core.Workflow, rcOn)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s optimizer on: %w", name, err)
			}

			dOff, dOn := relation.Digest(off.Output), relation.Digest(on.Output)
			if dOff != dOn {
				return nil, fmt.Errorf(
					"experiments: %s nodes=%d: optimizer changed the output (digest %x off, %x on)",
					name, nodes, dOff, dOn)
			}

			// Re-derive the decision report from a fresh plan: the run
			// path discards it, and the plan builder is deterministic.
			rep, err := optimizeReport(taskOn, rcOn)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s plan report: %w", name, err)
			}
			applied := make([]dataflow.Diag, 0, rep.Applied)
			for _, d := range rep.Diags {
				if len(d.Msg) >= 8 && d.Msg[:8] == "applied:" {
					applied = append(applied, d)
				}
			}
			out = append(out, OptimizeRow{
				Task:    name,
				Nodes:   nodes,
				Workers: workers,
				Off:     off.SimSeconds,
				On:      on.SimSeconds,
				Applied: rep.Applied, Rejected: rep.Rejected,
				Digest: dOff, DigestsEqual: true,
				Rewrites: applied,
			})
		}
	}
	return out, nil
}

// optimizeReport rebuilds the task's workflow plan and optimizes it
// statically, returning the decision report the run path produced.
func optimizeReport(task core.Task, rc core.RunConfig) (*planopt.Report, error) {
	d, ok := task.(pipeline.Declaration)
	if !ok {
		return nil, fmt.Errorf("task %q does not expose a workflow plan", task.Name())
	}
	w, err := d.Plan(rc)
	if err != nil {
		return nil, err
	}
	return planopt.Optimize(w, planopt.ConfigOptions(rc))
}
