package core

import (
	"fmt"

	"repro/internal/faults"
	"repro/internal/lineage"
	"repro/internal/telemetry"
)

// SpecVersion is the current RunSpec wire version. Specs with an empty
// APIVersion are treated as current; unknown versions are rejected so a
// future v2 can change field semantics without silent misreads.
const SpecVersion = "v1"

// DefaultTenant is the tenant runs belong to when the spec names none.
const DefaultTenant = "default"

// RunSpec is the unified, serializable request shape for one task run:
// the single decode target of POST /v1/runs, the CLI's run mode, the
// traffic generator and the experiment drivers. It is deliberately
// plain data — every knob is a scalar field — and converts into the
// internal RunConfig (live objects: cost model, recorder, stores) via
// Config. RunConfig stays the normalized compiled form; RunSpec is the
// wire form in front of it.
type RunSpec struct {
	// APIVersion is the spec version ("v1"); empty means current.
	APIVersion string `json:"api_version,omitempty"`
	// Task names a registered task (dice, wef, gotta, kge).
	Task string `json:"task"`
	// Paradigm is "script", "workflow" or "both" (the default).
	Paradigm string `json:"paradigm,omitempty"`
	// Size is the input size; <= 0 uses the task's paper-scale default.
	Size int `json:"size,omitempty"`
	// Seed is the dataset seed; 0 means 1.
	Seed uint64 `json:"seed,omitempty"`
	// Workers is the parallelism knob; 0 means 1. Bounded by the
	// configured cluster's worker vCPUs (ErrTooManyWorkers beyond it).
	Workers int `json:"workers,omitempty"`
	// Nodes selects the cluster tier: <= 1 is the legacy paper cluster
	// (32-vCPU ceiling), > 1 datum-shards the run across that many
	// paper-shaped nodes and lifts the ceiling to nodes × 8 vCPUs.
	Nodes int `json:"nodes,omitempty"`
	// ShardMem overrides the sharded tier's per-worker memory budget in
	// bytes before spill; 0 keeps the node-shape default.
	ShardMem int64 `json:"shard_mem,omitempty"`

	// Tenant attributes the run for fair-share scheduling and
	// accounting; empty means DefaultTenant. One-shot runs ignore it.
	Tenant string `json:"tenant,omitempty"`
	// Priority orders runs within a tenant's queue: higher first,
	// FIFO among equals. It never lets one tenant preempt another.
	Priority int `json:"priority,omitempty"`

	// FaultRate arms deterministic fault injection, in kills per 100
	// simulated seconds; 0 leaves the plan inert.
	FaultRate float64 `json:"fault_rate,omitempty"`
	// FaultSeed seeds the fault event stream; 0 reuses Seed.
	FaultSeed uint64 `json:"fault_seed,omitempty"`
	// NodeFraction is the probability a fault is node-level; only
	// meaningful with FaultRate > 0.
	NodeFraction float64 `json:"node_fraction,omitempty"`
	// CheckpointEvery sets the workflow checkpoint epoch length in
	// batches; > 0 arms checkpointing even at FaultRate 0.
	CheckpointEvery int `json:"checkpoint_every,omitempty"`

	// Optimize runs the cost-based plan optimizer over each workflow
	// plan before execution; outputs are bit-identical either way, so it
	// is purely a performance knob. Scripts ignore it.
	Optimize bool `json:"optimize,omitempty"`

	// Lineage arms a fresh versioned artifact store for the run. For a
	// store that persists across runs, attach one via extra options in
	// Config instead.
	Lineage bool `json:"lineage,omitempty"`
	// Telemetry requests span/metric collection. The recorder itself is
	// a live object, so servers attach theirs via extra options; when
	// none is supplied, Config creates a run-private recorder.
	Telemetry bool `json:"telemetry,omitempty"`
}

// Normalize fills defaults and validates every field that can be
// checked without the task registry (NewTask reports unknown tasks).
func (s RunSpec) Normalize() (RunSpec, error) {
	switch s.APIVersion {
	case "", SpecVersion:
		s.APIVersion = SpecVersion
	default:
		return s, fmt.Errorf("core: unsupported spec version %q (have %s)", s.APIVersion, SpecVersion)
	}
	if s.Task == "" {
		return s, fmt.Errorf("core: spec names no task")
	}
	if s.Paradigm == "" {
		s.Paradigm = "both"
	}
	switch s.Paradigm {
	case "script", "workflow", "both":
	default:
		return s, fmt.Errorf("core: unknown paradigm %q (want script, workflow or both)", s.Paradigm)
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Workers == 0 {
		s.Workers = 1
	}
	if s.Tenant == "" {
		s.Tenant = DefaultTenant
	}
	if s.FaultSeed == 0 {
		s.FaultSeed = s.Seed
	}
	// Worker bounds (against the spec's own topology) and fault-plan
	// sanity are RunConfig.Normalize's rules; running them here means a
	// bad spec is rejected at the API edge instead of after queueing.
	if _, err := (RunConfig{Workers: s.Workers, Nodes: s.Nodes, ShardMemBytes: s.ShardMem}).Normalize(); err != nil {
		return s, err
	}
	if err := s.faultPlan().Validate(); err != nil {
		return s, err
	}
	return s, nil
}

// faultPlan builds the spec's fault plan; the zero plan when inert.
func (s RunSpec) faultPlan() faults.Plan {
	if s.FaultRate <= 0 && s.CheckpointEvery <= 0 {
		return faults.Plan{}
	}
	return faults.Plan{
		Seed:            s.FaultSeed,
		Rate:            s.FaultRate,
		NodeFraction:    s.NodeFraction,
		CheckpointEvery: s.CheckpointEvery,
	}
}

// Paradigms lists the paradigms the spec asks for, in run order.
func (s RunSpec) Paradigms() []Paradigm {
	switch s.Paradigm {
	case "script":
		return []Paradigm{Script}
	case "workflow":
		return []Paradigm{Workflow}
	default:
		return []Paradigm{Script, Workflow}
	}
}

// Config converts the normalized spec into a RunConfig. extra options
// are applied after the spec's own, so servers can attach live objects
// (a shared telemetry recorder, a progress sink, a persistent lineage
// store) or override knobs the spec set.
func (s RunSpec) Config(extra ...Option) (RunConfig, error) {
	s, err := s.Normalize()
	if err != nil {
		return RunConfig{}, err
	}
	opts := []Option{WithWorkers(s.Workers)}
	if s.Optimize {
		opts = append(opts, WithOptimize(true))
	}
	if s.Nodes > 1 {
		opts = append(opts, WithNodes(s.Nodes))
		if s.ShardMem > 0 {
			opts = append(opts, WithShardMem(s.ShardMem))
		}
	}
	if plan := s.faultPlan(); plan.Rate > 0 || plan.CheckpointEvery > 0 {
		opts = append(opts, WithFaults(plan))
	}
	if s.Lineage {
		store, err := lineage.NewStore(nil, 0)
		if err != nil {
			return RunConfig{}, err
		}
		opts = append(opts, WithLineage(store))
	}
	if s.Telemetry {
		opts = append(opts, WithTelemetry(telemetry.New()))
	}
	opts = append(opts, extra...)
	return NewRunConfig(opts...)
}

// NewTask resolves the spec's task through the registry at the spec's
// size and seed.
func (s RunSpec) NewTask() (Task, error) {
	s, err := s.Normalize()
	if err != nil {
		return nil, err
	}
	return NewTask(s.Task, s.Size, s.Seed)
}

// Run executes the spec end to end — one task construction, one
// config, each requested paradigm in order — and returns the results in
// that order. extra options are passed to Config. It is the one
// spec → task → config → run loop the CLI, the HTTP service and the
// experiment drivers share.
func (s RunSpec) Run(extra ...Option) ([]*Result, error) {
	task, err := s.NewTask()
	if err != nil {
		return nil, err
	}
	cfg, err := s.Config(extra...)
	if err != nil {
		return nil, err
	}
	var out []*Result
	for _, p := range s.Paradigms() {
		res, err := task.Run(p, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}
