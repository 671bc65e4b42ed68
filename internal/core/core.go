// Package core defines the comparison framework that is this
// reproduction's primary deliverable: the Paradigm and Task
// abstractions under which the four data-science workloads (DICE, WEF,
// GOTTA, KGE) are implemented twice — once as a notebook script scaled
// with the Ray-style backend, once as a dataflow workflow — and
// measured on the paper's four metrics: total execution time, number
// of parallel processes, lines of code, and number of operators.
package core

import (
	"fmt"

	"repro/internal/cost"
	"repro/internal/faults"
	"repro/internal/lineage"
	"repro/internal/relation"
	"repro/internal/shard"
	"repro/internal/telemetry"
)

// Paradigm identifies one of the two platform paradigms under
// comparison.
type Paradigm int

const (
	// Script is the Jupyter-Notebook-plus-Ray paradigm.
	Script Paradigm = iota
	// Workflow is the Texera-style GUI dataflow paradigm.
	Workflow
)

// String returns the paradigm name.
func (p Paradigm) String() string {
	switch p {
	case Script:
		return "script"
	case Workflow:
		return "workflow"
	default:
		return fmt.Sprintf("Paradigm(%d)", int(p))
	}
}

// RunConfig controls one task execution.
type RunConfig struct {
	// Model supplies cost constants; nil uses cost.Default().
	Model *cost.Model
	// Workers is the parallelism knob: per-operator worker count for
	// the workflow paradigm, Ray num_cpus for the script paradigm.
	// Zero means 1.
	Workers int
	// Nodes selects the cluster tier: <= 1 runs on the paper's flat
	// 4×8-vCPU cluster (the legacy path, no exchange pricing, no spill
	// modeling); > 1 runs datum-sharded across that many paper-shaped
	// nodes, raising the worker ceiling to Nodes × 8 vCPUs and pricing
	// cross-node shuffles and larger-than-memory operators.
	Nodes int
	// ShardMemBytes overrides the sharded tier's per-worker state
	// budget before blocking operators spill to disk; 0 derives the
	// default from the node shape. Ignored when Nodes <= 1.
	ShardMemBytes int64
	// Telemetry, when non-nil, collects per-operator/per-cell/per-task
	// spans, hot-path metrics and critical-path rows from the run. Nil
	// (the default) keeps every engine on its uninstrumented fast path.
	Telemetry *telemetry.Recorder
	// Faults arms deterministic fault injection and paradigm-faithful
	// recovery: lineage replay with backoff for scripts, epoch
	// checkpointing with restore for workflows. The zero plan is
	// entirely inert. Outputs are bit-identical under any plan.
	Faults faults.Plan
	// Lineage, when non-nil, arms versioned-artifact caching with
	// incremental re-execution: workflow runs reuse at operator
	// granularity, script runs at cell granularity with stateful-kernel
	// (suffix-invalidation) semantics. The store persists across runs of
	// the same task — that persistence is what makes iteration cheap.
	Lineage *lineage.Store
	// Progress, when non-nil, receives live per-operator progress
	// events from the engines (see ProgressEvent). Nil keeps every
	// engine on its unobserved fast path.
	Progress ProgressSink
	// Optimize runs the cost-based plan optimizer (internal/planopt)
	// over each workflow plan before execution: output-preserving
	// rewrites only, so results are bit-identical with or without it.
	// The script paradigm has no declarative plan and ignores the flag —
	// the paper's point about what tooling can see.
	Optimize bool
}

// ErrTooManyWorkers reports a worker count above the simulated
// cluster's vCPU budget. It is typed (and carries the limit) so the
// serving tier can map it to a clean 4xx response instead of a generic
// internal error.
type ErrTooManyWorkers struct {
	Workers int
	Limit   int
}

func (e *ErrTooManyWorkers) Error() string {
	return fmt.Sprintf("core: worker count %d exceeds the configured cluster's %d worker vCPUs", e.Workers, e.Limit)
}

// Topology returns the shard topology the config schedules onto: the
// legacy single-cluster tier for Nodes <= 1, a datum-sharded multi-node
// tier beyond it.
func (c RunConfig) Topology() shard.Topology {
	return shard.Topology{Nodes: c.Nodes, WorkerMemBytes: c.ShardMemBytes}
}

// Normalize fills defaults and validates. Worker counts are bounded by
// the configured topology's worker vCPUs (shard.Topology.TotalVCPUs) —
// the paper cluster's 32 on the legacy tier, nodes × 8 on the sharded
// tier — because both paradigms schedule onto that hardware, and asking
// for more would simulate machines that don't exist.
func (c RunConfig) Normalize() (RunConfig, error) {
	if c.Model == nil {
		c.Model = cost.Default()
	}
	if err := c.Model.Validate(); err != nil {
		return c, err
	}
	if c.Workers == 0 {
		c.Workers = 1
	}
	if c.Workers < 0 {
		return c, fmt.Errorf("core: negative worker count %d", c.Workers)
	}
	if c.Nodes < 0 {
		return c, fmt.Errorf("core: negative node count %d", c.Nodes)
	}
	if c.ShardMemBytes < 0 {
		return c, fmt.Errorf("core: negative shard memory budget %d", c.ShardMemBytes)
	}
	if limit := c.Topology().TotalVCPUs(); c.Workers > limit {
		return c, &ErrTooManyWorkers{Workers: c.Workers, Limit: limit}
	}
	if err := c.Faults.Validate(); err != nil {
		return c, err
	}
	return c, nil
}

// Result is the measured outcome of one task under one paradigm.
type Result struct {
	Task     string
	Paradigm Paradigm

	// SimSeconds is the paper's "total execution time" metric.
	SimSeconds float64
	// LinesOfCode is the paper's implementation-size metric.
	LinesOfCode int
	// Operators is the paper's subtask-count metric: workflow operator
	// count, or notebook cell count for scripts.
	Operators int
	// ParallelProcs is the paper's "number of parallel processes".
	ParallelProcs int

	// Output is the task's canonical result table, used to assert the
	// two paradigms compute the same thing.
	Output *relation.Table
	// Quality holds task-specific quality numbers (F1, exact match,
	// hit rate) keyed by metric name.
	Quality map[string]float64
	// Trace summarizes the execution's cost record. Workflow runs
	// populate it from the dataflow trace; script runs leave it zero
	// (Nodes == 0 means absent).
	Trace TraceTotals
	// Recovery summarizes fault-recovery work; zero without a fault
	// plan.
	Recovery RecoveryTotals
	// Lineage summarizes artifact-store reuse (hits, invalidations,
	// bytes served from cache); nil without a lineage store.
	Lineage *lineage.RunReport
}

// RecoveryTotals folds a run's fault-recovery work into comparable
// scalars, so golden tests can assert bit-equality across runs. The
// asymmetry between the paradigms shows up here: script runs report
// backoff and reconstruction, workflow runs report checkpoints and
// restores.
type RecoveryTotals struct {
	// Kills counts killed attempts; Checkpoints counts epoch snapshots
	// (workflow paradigm only).
	Kills       int
	Checkpoints int
	// LostSeconds is discarded partial work; DelaySeconds is retry wait
	// (backoff or worker respawn); RestoreSeconds is added recovery work
	// (object reconstruction or checkpoint read-back);
	// CheckpointSeconds is the continuous write tax (workflow only).
	LostSeconds       float64
	DelaySeconds      float64
	RestoreSeconds    float64
	CheckpointSeconds float64
	// ReconstructedBytes totals objects rebuilt from lineage (script
	// only).
	ReconstructedBytes int64
}

// TraceTotals folds an execution trace into scalar counters. Two runs
// of the same deterministic workflow must produce identical totals —
// the golden-determinism tests assert exactly that, alongside
// SimSeconds and the output digest.
type TraceTotals struct {
	Nodes      int
	Edges      int
	InTuples   int64
	OutTuples  int64
	Batches    int64 // batches emitted by all nodes
	EdgeTuples int64
	EdgeBytes  int64 // encoded bytes crossing all edges
	WorkInterp float64
	WorkMem    float64
	// ShuffleBytes counts bytes crossing the NIC through exchange
	// operators on the sharded tier (zero on the legacy single-cluster
	// path); SpillBytes counts bytes written to the disk spill path by
	// larger-than-memory joins and group-bys.
	ShuffleBytes int64
	SpillBytes   int64
}

// Task is one of the four benchmark workloads, runnable under both
// paradigms.
type Task interface {
	// Name returns the task's short name (dice, wef, gotta, kge).
	Name() string
	// Run executes the task under the given paradigm.
	Run(p Paradigm, cfg RunConfig) (*Result, error)
}

// RunBoth executes a task under both paradigms with the same config.
func RunBoth(t Task, cfg RunConfig) (script, workflow *Result, err error) {
	script, err = t.Run(Script, cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("core: %s under %s: %w", t.Name(), Script, err)
	}
	workflow, err = t.Run(Workflow, cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("core: %s under %s: %w", t.Name(), Workflow, err)
	}
	return script, workflow, nil
}

// SpeedupOver returns how much faster r is than other, as the ratio
// other/r of execution times (1.5 means 50% faster).
func (r *Result) SpeedupOver(other *Result) float64 {
	if r.SimSeconds <= 0 {
		return 0
	}
	return other.SimSeconds / r.SimSeconds
}
