package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/dataflow"
	"repro/internal/pipeline"
	"repro/internal/relation"
	"repro/internal/tasks/dice"
	"repro/internal/tasks/gotta"
)

// Ablations isolate the cost-model mechanisms DESIGN.md credits for
// each headline result, by re-running an experiment with one mechanism
// switched off or swept. They answer "is the reproduced gap really
// caused by what the paper says causes it?".

// AblationRow is one configuration's measurement.
type AblationRow struct {
	Config  string
	Seconds float64
	Note    string
}

// AblationTorchPin re-runs GOTTA's script paradigm with and without
// Ray's num_cpus=1 torch pinning — the mechanism the paper blames for
// most of the script's Figure 13d deficit.
func AblationTorchPin(cfg Config) ([]AblationRow, error) {
	cfg = cfg.normalize()
	task, err := gotta.New(gotta.Params{Paragraphs: 4, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	var out []AblationRow
	for _, c := range []struct {
		name  string
		cores int
		note  string
	}{
		{"pinned (num_cpus=1)", 1, "the paper's measured configuration"},
		{"unpinned (8 cores)", 8, "counterfactual: Ray without the pin"},
	} {
		m := cost.Default()
		m.TorchCoresRay = c.cores
		rc := cfg.RunConfig
		rc.Model = m
		res, err := task.Run(core.Script, rc)
		if err != nil {
			return nil, err
		}
		out = append(out, AblationRow{Config: c.name, Seconds: res.SimSeconds, Note: c.note})
	}
	return out, nil
}

// AblationObjectStore re-runs GOTTA's script paradigm with the object
// store's transfer rates swept, isolating the model-fetch cost from
// the torch pin.
func AblationObjectStore(cfg Config) ([]AblationRow, error) {
	cfg = cfg.normalize()
	task, err := gotta.New(gotta.Params{Paragraphs: 4, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	var out []AblationRow
	for _, c := range []struct {
		name string
		mult float64
		note string
	}{
		{"baseline store", 1, "calibrated plasma rates"},
		{"4x slower store", 0.25, "e.g. contended shared memory"},
		{"near-free store", 100, "counterfactual: zero-copy fetches"},
	} {
		m := cost.Default()
		m.ObjectStorePutBytesPerSec *= c.mult
		m.ObjectStoreGetBytesPerSec *= c.mult
		rc := cfg.RunConfig
		rc.Model = m
		res, err := task.Run(core.Script, rc)
		if err != nil {
			return nil, err
		}
		out = append(out, AblationRow{Config: c.name, Seconds: res.SimSeconds, Note: c.note})
	}
	return out, nil
}

// AblationSerde sweeps the workflow engine's serialization throughput
// on a data-heavy, compute-light document chain — Aspect #4's claim
// that serde at operator boundaries is the workflow paradigm's
// intrinsic overhead. The four tasks keep serde hidden behind CPU work
// and pipelining (a finding in itself, noted in EXPERIMENTS.md), so
// the mechanism is isolated on a dedicated workflow that shuffles
// ~2 KB documents through four pass-through operators.
func AblationSerde(cfg Config) ([]AblationRow, error) {
	cfg = cfg.normalize()
	rows := cfg.scaled(20000)
	// Below a few thousand documents the fixed submission/startup
	// costs drown the mechanism being isolated; keep a floor.
	if rows < 5000 {
		rows = 5000
	}
	var out []AblationRow
	for _, c := range []struct {
		name string
		mult float64
		note string
	}{
		{"serde 10x slower", 0.1, "pickle-grade serialization"},
		{"baseline serde", 1, "calibrated Arrow-grade rate"},
		{"near-free serde", 1000, "counterfactual: shared-memory tuples"},
	} {
		m := cost.Default()
		m.SerdeBytesPerSec *= c.mult
		secs, err := runDocumentChain(rows, m)
		if err != nil {
			return nil, err
		}
		out = append(out, AblationRow{Config: c.name, Seconds: secs, Note: c.note})
	}
	return out, nil
}

// runDocumentChain pushes rows ~2 KB documents through a four-operator
// pass-through workflow and returns the simulated time.
func runDocumentChain(rows int, m *cost.Model) (float64, error) {
	schema := relation.MustSchema(
		relation.Field{Name: "id", Type: relation.Int},
		relation.Field{Name: "doc", Type: relation.String},
	)
	tbl := relation.NewTable(schema)
	blob := strings.Repeat("the quick brown fox jumps over the lazy dog. ", 44) // ~2 KB
	for i := 0; i < rows; i++ {
		tbl.AppendUnchecked(relation.Tuple{relation.IntValue(int64(i)), relation.StringValue(blob)})
	}
	w := dataflow.New("document-chain")
	prev := w.Source("docs", tbl)
	for i := 0; i < 4; i++ {
		op := dataflow.NewMap(fmt.Sprintf("pass-%d", i), cost.Python, schema,
			func(r relation.Tuple, out *dataflow.Rows) error {
				out.Emit(r...)
				return nil
			})
		op.Work = cost.Work{Interp: 0.02e-3} // compute-light
		id := w.Op(op)
		w.Connect(prev, id, 0, dataflow.RoundRobin())
		prev = id
	}
	sink := w.Sink("out")
	w.Connect(prev, sink, 0, dataflow.RoundRobin())
	res, err := w.Run(context.Background(), dataflow.Config{Model: m})
	if err != nil {
		return 0, err
	}
	return res.SimSeconds, nil
}

// AblationBatching compares the workflow engine's auto-tuned batch
// size against single-tuple and whole-table batching on DICE — the
// "engine-managed batching" advantage of Aspect #2. Whole-table
// batches destroy pipelining (each operator gets all input at once);
// single-tuple batches maximize overlap but multiply per-batch
// scheduling in the simulator.
func AblationBatching(cfg Config) ([]AblationRow, error) {
	cfg = cfg.normalize()
	pairs := cfg.scaled(200)
	task, err := dice.New(dice.Params{Pairs: pairs, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	var out []AblationRow
	for _, c := range []struct {
		name  string
		batch int
		note  string
	}{
		{"auto-tuned", 0, "engine-managed batching (paper's Texera)"},
		{"whole-table batches", pairs, "no pipelining across operators"},
	} {
		res, err := pipeline.Run(pinnedBatch{task, c.batch}, core.Workflow, cfg.RunConfig)
		if err != nil {
			return nil, err
		}
		out = append(out, AblationRow{Config: c.name, Seconds: res.SimSeconds, Note: c.note})
	}
	return out, nil
}

// pinnedBatch is DICE with every source's batch size pinned on the plan
// (0 leaves the engine's auto-tuning) — the knob the batching ablation
// sweeps. The optimizer's batch pass leaves pinned sources alone.
type pinnedBatch struct {
	*dice.Task
	batch int
}

func (p pinnedBatch) Plan(cfg core.RunConfig) (*dataflow.Workflow, error) {
	w, err := p.Task.Plan(cfg)
	if err != nil {
		return nil, err
	}
	for id := dataflow.NodeID(0); int(id) < w.NumNodes(); id++ {
		if w.IsSource(id) {
			if err := w.SetSourceBatch(id, p.batch); err != nil {
				return nil, err
			}
		}
	}
	return w, nil
}

// TuneRow is one operator's recommended worker count.
type TuneRow struct {
	Operator string
	Workers  int
}

// TuneOutcome is the auto-tuner demonstration result.
type TuneOutcome struct {
	Rows            []TuneRow
	BaselineSeconds float64
	TunedSeconds    float64
	CoresUsed       int
}

// AutoTuneDICE demonstrates the engine-side resource tuning of Aspect
// #2: profile the DICE workflow once at one worker per operator, then
// let the tuner allocate a 16-core budget across its operators on the
// simulator.
func AutoTuneDICE(cfg Config) (*TuneOutcome, error) {
	cfg = cfg.normalize()
	task, err := dice.New(dice.Params{Pairs: cfg.scaled(200), Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	rc, err := cfg.RunConfig.Normalize()
	if err != nil {
		return nil, err
	}
	rc.Workers = 1 // profile at one worker per operator
	profile, err := task.ProfileWorkflow(rc)
	if err != nil {
		return nil, err
	}
	res, err := dataflow.AutoTune(profile, rc.Model, 16)
	if err != nil {
		return nil, err
	}
	out := &TuneOutcome{
		BaselineSeconds: res.BaselineSeconds,
		TunedSeconds:    res.Seconds,
		CoresUsed:       res.CoresUsed,
	}
	for _, n := range profile.Nodes {
		if n.Kind != "operator" {
			continue
		}
		out.Rows = append(out.Rows, TuneRow{Operator: n.Name, Workers: res.Workers[n.ID]})
	}
	return out, nil
}
