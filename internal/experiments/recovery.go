package experiments

import (
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/relation"
)

// ---------------------------------------------------------------------------
// E11 — recovery overhead: makespan versus fault rate, per paradigm.
//
// The paper's Aspect #5 contrasts the paradigms' failure handling:
// scripts restart from lineage (free until a fault strikes, then whole
// tasks re-run), workflows checkpoint continuously (a steady tax, but
// cheap replay). This experiment makes that trade quantitative: DICE
// is run under both paradigms across a sweep of fault rates, with the
// workflow's epoch checkpointing armed at every point — the rate-0
// point therefore isolates the pure checkpoint write tax. Every run's
// output digest is asserted against the failure-free baseline: fault
// injection happens on the simulated schedule, so recovery must never
// change what is computed.

// RecoveryPoint is one fault rate's measurements.
type RecoveryPoint struct {
	// Rate is faults per 100 simulated seconds.
	Rate float64
	// Script and Workflow are makespans under the plan; ScriptClean
	// and WorkflowClean the failure-free references.
	Script, Workflow           float64
	ScriptClean, WorkflowClean float64
	// Kills per paradigm, and the workflow's continuous checkpoint tax.
	ScriptKills, WorkflowKills int
	CheckpointSeconds          float64
	// DigestsMatch reports whether both paradigms' outputs were
	// bit-identical to the failure-free baseline.
	DigestsMatch bool
}

// RecoveryRates is the experiment's fault-rate sweep, in faults per
// 100 simulated seconds.
var RecoveryRates = []float64{0, 1, 2, 4, 8}

// RecoveryOverhead sweeps fault rates over DICE under both paradigms.
func RecoveryOverhead(cfg Config) ([]RecoveryPoint, error) {
	cfg = cfg.normalize()

	baseline := func() (*core.Result, *core.Result, error) {
		task, err := core.NewTask("dice", cfg.scaled(200), cfg.Seed)
		if err != nil {
			return nil, nil, err
		}
		return core.RunBoth(task, cfg.RunConfig)
	}
	cleanS, cleanW, err := baseline()
	if err != nil {
		return nil, err
	}
	wantS, wantW := relation.Digest(cleanS.Output), relation.Digest(cleanW.Output)

	var out []RecoveryPoint
	for _, rate := range RecoveryRates {
		rc := cfg.RunConfig
		rc.Faults = faults.Plan{
			Seed:            cfg.Seed,
			Rate:            rate,
			NodeFraction:    0.25,
			CheckpointEvery: 4, // armed even at rate 0: the pure write tax
		}
		task, err := core.NewTask("dice", cfg.scaled(200), cfg.Seed)
		if err != nil {
			return nil, err
		}
		s, w, err := core.RunBoth(task, rc)
		if err != nil {
			return nil, err
		}
		out = append(out, RecoveryPoint{
			Rate:              rate,
			Script:            s.SimSeconds,
			Workflow:          w.SimSeconds,
			ScriptClean:       cleanS.SimSeconds,
			WorkflowClean:     cleanW.SimSeconds,
			ScriptKills:       s.Recovery.Kills,
			WorkflowKills:     w.Recovery.Kills,
			CheckpointSeconds: w.Recovery.CheckpointSeconds,
			DigestsMatch: relation.Digest(s.Output) == wantS &&
				relation.Digest(w.Output) == wantW,
		})
	}
	return out, nil
}
