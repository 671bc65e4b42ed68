// Package pipeline is the only code that turns a core.RunConfig into an
// execution. A task declares what is specific to it — a plan builder,
// a notebook, a sink and how to shape it, a lineage scope, its
// lines-of-code tables — and the pipeline owns everything the run
// options touch, for both paradigms:
//
//	normalize → build → optimize → lower → execute → digest
//
// Workflow runs build the task's plan, optimize it when asked, lower
// the RunConfig onto a dataflow.Config (model, cluster, shard,
// telemetry, faults, progress, lineage), execute, and shape the sink
// table into the canonical output callers digest. Script runs build the
// notebook against an Env (model, workers, and Put/RunJob over the
// run's Ray cluster, which wire telemetry, progress and faults onto
// every Ray job), run it cell by cell or through the lineage store, and
// assemble the same Result. A new run option is threaded here and
// nowhere under internal/tasks.
//
// The package cannot live in core: dataflow, planopt and raysim import
// core, and the pipeline imports all three.
package pipeline

import (
	"context"
	"fmt"
	"maps"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/dataflow"
	"repro/internal/lineage"
	"repro/internal/notebook"
	"repro/internal/objstore"
	"repro/internal/planopt"
	"repro/internal/raysim"
	"repro/internal/relation"
)

// Declaration is what a workload supplies to be runnable under both
// paradigms. Rev comes with the embedded Base; the rest is the task's
// own.
type Declaration interface {
	// Name is the task's registered short name.
	Name() string
	// Scope renders the parameters that identify one build of the task
	// in a lineage store ("pairs=20,seed=1,workers=4"); the pipeline
	// wraps it as "<paradigm>:<name>[...]".
	Scope(p core.Paradigm, workers int) string
	// Rev sums the edit revisions of the named stages.
	Rev(stages ...string) int
	// Plan assembles the workflow DAG for a normalized config. It reads
	// the config's model and worker count and nothing else.
	Plan(cfg core.RunConfig) (*dataflow.Workflow, error)
	// Workflow describes the plan's result and implementation size.
	Workflow() WorkflowDecl
	// Notebook writes the script paradigm's cells against env.
	Notebook(env *Env) NotebookDecl
}

// PlanProvider is the plan-time capability every task has through
// Base: build the workflow DAG it would execute at a worker count,
// without executing it.
type PlanProvider interface {
	WorkflowPlan(workers int) (*dataflow.Workflow, error)
}

// WorkflowDecl is the workflow paradigm's side of a declaration beyond
// the plan itself.
type WorkflowDecl struct {
	// Sink names the sink whose table is the task's result.
	Sink string
	// UDFs are the Python bodies typed into operator dialogs; Config is
	// what the user fills in through the GUI, one entry per operator:
	// its type, then each parameter line. Together they are the
	// workflow's lines of code.
	UDFs   []string
	Config [][]string
	// Serial marks a plan with no worker knob: it reports one parallel
	// process whatever the config asks for.
	Serial bool
	// Shape turns the sink table into the canonical output table and
	// the task's quality numbers.
	Shape func(sink *relation.Table) (*relation.Table, map[string]float64, error)
}

// NotebookDecl is the script paradigm's side of a declaration.
type NotebookDecl struct {
	Cells []*notebook.Cell
	// Revs maps a cell to the pipeline stages it implements; the cell's
	// lineage revision is the sum of those stages' edit revisions.
	Revs map[string][]string
	// Output reads the canonical output table and quality numbers the
	// cells left behind; it is called once, after the last cell.
	Output func() (*relation.Table, map[string]float64, error)
}

// Env is what notebook cells are written against. The run's Ray
// cluster sits behind Put and RunJob and is built on first use, so a
// notebook with no Ray work never constructs one.
type Env struct {
	Model   *cost.Model
	Workers int

	cfg      core.RunConfig
	task     string
	ray      *raysim.Cluster
	procs    int
	trace    core.TraceTotals
	recovery core.RecoveryTotals
}

// newEnv is the Env a script run of a normalized config hands its
// task's notebook.
func newEnv(cfg core.RunConfig, task string) *Env {
	return &Env{Model: cfg.Model, Workers: cfg.Workers, cfg: cfg, task: task, procs: 1}
}

func (e *Env) cluster() (*raysim.Cluster, error) {
	if e.ray == nil {
		ray, err := raysim.NewClusterFor(e.cfg.Model, e.cfg.Topology(), e.cfg.Workers)
		if err != nil {
			return nil, err
		}
		e.ray = ray
	}
	return e.ray, nil
}

// Put places an object in the cluster's shared object store and returns
// the seconds the copy costs.
func (e *Env) Put(id objstore.ID, bytes int64) (float64, error) {
	ray, err := e.cluster()
	if err != nil {
		return 0, err
	}
	return ray.Store().Put(id, bytes)
}

// RunJob runs the tasks a cell has prepared as one Ray job and charges
// its makespan to the kernel. The run's telemetry, progress sink and
// fault plan are attached here, so cells never see them.
func (e *Env) RunJob(k *notebook.Kernel, tasks []raysim.TaskSpec) error {
	ray, err := e.cluster()
	if err != nil {
		return err
	}
	job := ray.NewJob()
	for _, spec := range tasks {
		job.Submit(spec)
	}
	if !k.Replaying() {
		// A replayed cell rebuilds its outputs but must not re-emit
		// spans for work that was served from cache.
		job.SetTelemetry(e.cfg.Telemetry, "script:"+e.task)
		job.SetProgress(e.cfg.Progress, e.task)
	}
	job.SetFaults(e.cfg.Faults)
	res, err := job.Run()
	if err != nil {
		return err
	}
	k.ChargeSeconds(res.Makespan)
	if res.ParallelTasks > e.procs {
		e.procs = res.ParallelTasks
	}
	e.recovery.Kills += res.Recovery.Kills
	e.recovery.LostSeconds += res.Recovery.LostSeconds
	e.recovery.DelaySeconds += res.Recovery.DelaySeconds
	e.recovery.RestoreSeconds += res.Recovery.ExtraCostSeconds
	e.trace.ShuffleBytes += res.ShuffleBytes
	return nil
}

// Run executes a declared task under one paradigm.
func Run(d Declaration, p core.Paradigm, cfg core.RunConfig) (*core.Result, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	switch p {
	case core.Script:
		return asScript(d, cfg)
	case core.Workflow:
		return asWorkflow(d, cfg)
	default:
		return nil, fmt.Errorf("%s: unknown paradigm %v", d.Name(), p)
	}
}

func scope(d Declaration, p core.Paradigm, cfg core.RunConfig) string {
	return fmt.Sprintf("%s:%s[%s]", p, d.Name(), d.Scope(p, cfg.Workers))
}

// execute builds the task's plan for a normalized config, optimizes it
// when the config asks, and runs it.
func execute(d Declaration, cfg core.RunConfig) (*dataflow.Workflow, *dataflow.Result, error) {
	w, err := d.Plan(cfg)
	if err != nil {
		return nil, nil, err
	}
	if cfg.Optimize {
		if _, err := planopt.Optimize(w, planopt.ConfigOptions(cfg)); err != nil {
			return nil, nil, fmt.Errorf("%s: optimize: %w", d.Name(), err)
		}
	}
	res, err := w.Run(context.Background(), dataflow.Config{
		Model:        cfg.Model,
		Shard:        cfg.Topology(),
		Telemetry:    cfg.Telemetry,
		Faults:       cfg.Faults,
		Progress:     cfg.Progress,
		Lineage:      cfg.Lineage,
		LineageScope: scope(d, core.Workflow, cfg),
	})
	return w, res, err
}

func asWorkflow(d Declaration, cfg core.RunConfig) (*core.Result, error) {
	w, res, err := execute(d, cfg)
	if err != nil {
		return nil, err
	}
	decl := d.Workflow()
	out, quality, err := decl.Shape(res.Tables[decl.Sink])
	if err != nil {
		return nil, err
	}
	loc := 0
	for _, udf := range decl.UDFs {
		loc += notebook.SourceLines(udf)
	}
	for _, op := range decl.Config {
		loc += len(op)
	}
	procs := cfg.Workers
	if decl.Serial {
		procs = 1
	}
	return &core.Result{
		Task:          d.Name(),
		Paradigm:      core.Workflow,
		SimSeconds:    res.SimSeconds,
		LinesOfCode:   loc,
		Operators:     w.NumOperators(),
		ParallelProcs: procs,
		Output:        out,
		Quality:       quality,
		Trace:         res.Trace.Totals(),
		Recovery:      res.Recovery.Totals(),
		Lineage:       res.Lineage,
	}, nil
}

func asScript(d Declaration, cfg core.RunConfig) (*core.Result, error) {
	nb := notebook.New(d.Name(), cfg.Model)
	nb.SetTelemetry(cfg.Telemetry, "script:"+d.Name())
	nb.SetProgress(cfg.Progress, d.Name())
	env := newEnv(cfg, d.Name())
	decl := d.Notebook(env)
	for _, c := range decl.Cells {
		nb.Add(c)
	}

	var linRep *lineage.RunReport
	var err error
	if cfg.Lineage != nil {
		revs := make(map[string]int, len(decl.Revs))
		for cell, stages := range decl.Revs {
			revs[cell] = d.Rev(stages...)
		}
		linRep, err = lineage.RunNotebook(cfg.Lineage, nb, lineage.NotebookSpec{
			Scope: scope(d, core.Script, cfg),
			Revs:  revs,
		}, cfg.Telemetry)
	} else {
		err = nb.RunAll()
	}
	if err != nil {
		return nil, err
	}
	out, quality, err := decl.Output()
	if err != nil {
		return nil, err
	}
	if env.ray != nil {
		store := env.ray.Store().Stats()
		env.trace.SpillBytes = store.SpilledBytes
		env.recovery.ReconstructedBytes = store.ReconstructedBytes
	}
	return &core.Result{
		Task:          d.Name(),
		Paradigm:      core.Script,
		SimSeconds:    nb.Elapsed(),
		LinesOfCode:   nb.LinesOfCode(),
		Operators:     nb.NumCells(),
		ParallelProcs: env.procs,
		Output:        out,
		Quality:       quality,
		Trace:         env.trace,
		Recovery:      env.recovery,
		Lineage:       linRep,
	}, nil
}

// Base is embedded by every task. It carries the per-stage edit
// revisions — semantics-preserving re-parameterizations of the
// pipeline (the iterate workload): a bumped revision changes a stage's
// lineage signature without changing its output — and provides the
// run-facing methods over the task's declaration.
type Base struct {
	decl  Declaration
	edits map[string]int
}

// Bind ties the base to the task that embeds it; constructors call it
// once.
func (b *Base) Bind(d Declaration) { b.decl = d }

// SetEdits installs per-stage edit revisions. The map is copied.
func (b *Base) SetEdits(m map[string]int) { b.edits = maps.Clone(m) }

// Rev sums the current edit revisions of the named stages.
func (b *Base) Rev(stages ...string) int {
	sum := 0
	for _, s := range stages {
		sum += b.edits[s]
	}
	return sum
}

// Signature is the lineage signature of an operator implementing the
// named stages.
func (b *Base) Signature(stages ...string) dataflow.NodeOpt {
	return dataflow.WithSignature(fmt.Sprintf("rev=%d", b.Rev(stages...)))
}

// Run implements core.Task.
func (b *Base) Run(p core.Paradigm, cfg core.RunConfig) (*core.Result, error) {
	return Run(b.decl, p, cfg)
}

// WorkflowPlan assembles the workflow DAG without executing it — the
// task's Plan on a default config at that worker count — so plan-time
// validation and EXPLAIN can inspect the graph. The count is not held
// to a worker ceiling: that belongs to the topology a run is configured
// with, which a bare worker count does not name.
func (b *Base) WorkflowPlan(workers int) (*dataflow.Workflow, error) {
	return b.decl.Plan(core.RunConfig{Model: cost.Default(), Workers: workers})
}

// ProfileWorkflow runs the task's plain plan once — no optimizer, no
// lineage — and returns its cost trace: the input the engine's
// auto-tuner plans worker allocations from.
func (b *Base) ProfileWorkflow(cfg core.RunConfig) (*dataflow.Trace, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	cfg.Optimize, cfg.Lineage = false, nil
	_, res, err := execute(b.decl, cfg)
	if err != nil {
		return nil, err
	}
	return res.Trace, nil
}
