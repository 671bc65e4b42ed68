package kge

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/dataflow"
	"repro/internal/ml/kge"
	"repro/internal/pipeline"
	"repro/internal/relation"
)

// stage identifies one logical step of the Figure 7 pipeline.
type stage int

const (
	stFilter  stage = iota // drop out-of-stock candidates
	stJoin                 // attach the candidate's embedding
	stDelta                // compute u + r - t
	stNorm                 // reduce the delta to a distance
	stRank                 // sort ascending, keep top K (blocking)
	stReverse              // reverse lookup and output shaping
)

var stageNames = map[stage]string{
	stFilter: "filter-instock", stJoin: "embedding-join", stDelta: "compute-delta",
	stNorm: "compute-distance", stRank: "rank-topk", stReverse: "reverse-lookup",
}

// variantStages returns the fused operator layout for an operator
// count in 1..6 — the Figure 12b sweep.
func variantStages(ops int) [][]stage {
	switch ops {
	case 1:
		return [][]stage{{stFilter, stJoin, stDelta, stNorm, stRank, stReverse}}
	case 2:
		return [][]stage{{stFilter, stJoin, stDelta, stNorm}, {stRank, stReverse}}
	case 3:
		return [][]stage{{stFilter, stJoin}, {stDelta, stNorm}, {stRank, stReverse}}
	case 4:
		return [][]stage{{stFilter}, {stJoin}, {stDelta, stNorm}, {stRank, stReverse}}
	case 5:
		return [][]stage{{stFilter}, {stJoin}, {stDelta}, {stNorm}, {stRank, stReverse}}
	default:
		return [][]stage{{stFilter}, {stJoin}, {stDelta}, {stNorm}, {stRank}, {stReverse}}
	}
}

// Schemas at each stage boundary.
var (
	schemaBase = relation.MustSchema(
		relation.Field{Name: "asin", Type: relation.String},
		relation.Field{Name: "title", Type: relation.String},
		relation.Field{Name: "instock", Type: relation.Bool},
	)
	schemaJoined = relation.MustSchema(
		relation.Field{Name: "asin", Type: relation.String},
		relation.Field{Name: "title", Type: relation.String},
		relation.Field{Name: "instock", Type: relation.Bool},
		relation.Field{Name: "emb", Type: relation.String},
	)
	schemaDelta = relation.MustSchema(
		relation.Field{Name: "asin", Type: relation.String},
		relation.Field{Name: "title", Type: relation.String},
		relation.Field{Name: "emb", Type: relation.String},
		relation.Field{Name: "delta", Type: relation.String},
	)
	schemaScored = relation.MustSchema(
		relation.Field{Name: "asin", Type: relation.String},
		relation.Field{Name: "title", Type: relation.String},
		relation.Field{Name: "emb", Type: relation.String},
		relation.Field{Name: "dist", Type: relation.Float},
	)
)

// schemaAfter returns the row schema after a stage.
func schemaAfter(s stage) *relation.Schema {
	switch s {
	case stFilter:
		return schemaBase
	case stJoin:
		return schemaJoined
	case stDelta:
		return schemaDelta
	case stNorm, stRank:
		return schemaScored
	default:
		return OutputSchema
	}
}

// pipeOp is one workflow operator executing a fused run of stages.
type pipeOp struct {
	task   *Task
	name   string
	lang   cost.Language
	stages []stage
	in     *relation.Schema
	out    *relation.Schema
	// overhead is the per-tuple operator cost (UDF dispatch / tuple
	// wrapping) charged once per row regardless of fused stage count.
	overhead cost.Work
	// tableLoad, when non-zero, is charged once per worker before the
	// first row (the embedding-table build of the join stage).
	tableLoad cost.Work
	// probeOnly restricts a Scala-chain member to pass-through with
	// overhead only (the real join work happens in its probe member).
	probeOnly bool
}

// Desc implements dataflow.Operator.
func (o *pipeOp) Desc() dataflow.Desc {
	blocking := false
	stateless := true
	for _, s := range o.stages {
		if s == stRank {
			blocking = true
		}
		// Rank buffers rows across batches; reverse numbers its output
		// with a per-instance counter. Everything else is row-local.
		if s == stRank || s == stReverse {
			stateless = false
		}
	}
	return dataflow.Desc{
		Name:          o.name,
		Language:      o.lang,
		Ports:         1,
		BlockingPorts: []bool{blocking},
		Stateless:     stateless,
	}
}

// OutputSchema implements dataflow.Operator.
func (o *pipeOp) OutputSchema(in []*relation.Schema) (*relation.Schema, error) {
	if len(in) != 1 || !in[0].Equal(o.in) {
		return nil, fmt.Errorf("kge: %s: unexpected input schema", o.name)
	}
	return o.out, nil
}

// NewInstance implements dataflow.Operator.
func (o *pipeOp) NewInstance() dataflow.Instance {
	return &pipeInstance{op: o}
}

type pipeInstance struct {
	op     *pipeOp
	buffer []scored // only for rank stages
	rankN  int      // rows seen by rank (for sort cost)
	emit   int      // output counter for reverse-stage ranks
}

// Open charges the embedding-table build (when this operator joins):
// every worker loads its own copy before the first tuple, gating the
// stream — the behaviour the Table I Scala swap attacks.
func (pi *pipeInstance) Open(ec dataflow.ExecCtx) error {
	if pi.op.tableLoad != (cost.Work{}) {
		ec.AddWork(pi.op.tableLoad)
	}
	return nil
}

// hasStage reports whether the op runs stage s.
func (pi *pipeInstance) hasStage(s stage) bool {
	for _, st := range pi.op.stages {
		if st == s {
			return true
		}
	}
	return false
}

func (pi *pipeInstance) Process(ec dataflow.ExecCtx, _ int, rows []relation.Tuple) ([]relation.Tuple, error) {
	ec.AddWork(pi.op.overhead.Scale(float64(len(rows))))
	t := pi.op.task
	var out []relation.Tuple
	for _, r := range rows {
		row := r
		keep := true
		for _, s := range pi.op.stages {
			if !keep {
				break
			}
			switch s {
			case stFilter:
				ec.AddWork(workFilter)
				keep = row[2].Bool()
			case stJoin:
				if pi.op.probeOnly {
					break
				}
				ec.AddWork(workMerge)
				emb, err := t.stage2Embedding(row[0].Str())
				if err != nil {
					return nil, err
				}
				row = relation.Tuple{row[0], row[1], row[2], relation.StringValue(kge.EncodeVec(emb))}
			case stDelta:
				ec.AddWork(workDelta)
				emb, err := kge.DecodeVec(row[3].Str())
				if err != nil {
					return nil, err
				}
				row = relation.Tuple{row[0], row[1], row[3], relation.StringValue(kge.EncodeVec(t.stage3Delta(emb)))}
			case stNorm:
				ec.AddWork(workNorm)
				delta, err := kge.DecodeVec(row[3].Str())
				if err != nil {
					return nil, err
				}
				row = relation.Tuple{row[0], row[1], row[2], relation.FloatValue(stage4Dist(delta))}
			case stRank:
				emb, err := kge.DecodeVec(row[2].Str())
				if err != nil {
					return nil, err
				}
				pi.buffer = append(pi.buffer, scored{
					asin: row[0].Str(), title: row[1].Str(),
					emb: emb, dist: row[3].Float(),
				})
				pi.rankN++
				keep = false // emitted at EndPort
			case stReverse:
				ec.AddWork(workReverse)
				emb, err := kge.DecodeVec(row[2].Str())
				if err != nil {
					return nil, err
				}
				entity, err := t.model.ReverseLookup(emb)
				if err != nil {
					return nil, err
				}
				pi.emit++
				row = relation.Tuple{relation.IntValue(int64(pi.emit)), relation.StringValue(entity), row[1], row[3]}
			}
		}
		if keep {
			out = append(out, row)
		}
	}
	return out, nil
}

func (pi *pipeInstance) EndPort(ec dataflow.ExecCtx, _ int) ([]relation.Tuple, error) {
	if !pi.hasStage(stRank) {
		return nil, nil
	}
	n := float64(pi.rankN)
	if n > 1 {
		ec.AddWork(workSortCmp.Scale(n * math.Log2(n)))
	}
	sort.Slice(pi.buffer, func(i, j int) bool {
		if pi.buffer[i].dist != pi.buffer[j].dist {
			return pi.buffer[i].dist < pi.buffer[j].dist
		}
		return pi.buffer[i].asin < pi.buffer[j].asin
	})
	k := pi.op.task.params.TopK
	if k > len(pi.buffer) {
		k = len(pi.buffer)
	}
	var out []relation.Tuple
	for i := 0; i < k; i++ {
		s := pi.buffer[i]
		if pi.hasStage(stReverse) {
			ec.AddWork(workReverse)
			entity, err := pi.op.task.model.ReverseLookup(s.emb)
			if err != nil {
				return nil, err
			}
			out = append(out, relation.Tuple{relation.IntValue(int64(i + 1)), relation.StringValue(entity), relation.StringValue(s.title), relation.FloatValue(s.dist)})
			continue
		}
		out = append(out, relation.Tuple{relation.StringValue(s.asin), relation.StringValue(s.title), relation.StringValue(kge.EncodeVec(s.emb)), relation.FloatValue(s.dist)})
	}
	return out, nil
}

// scalaJoinChain builds the nine native Scala operators that replace
// the Python join operator in the Table I comparison. The probe member
// performs the actual join; the others are the engine's real
// decomposition (projection, partitioning, build, validation, ...)
// each adding its per-tuple pass.
func (t *Task) scalaJoinChain(withFilter bool) []*pipeOp {
	mk := func(name string, stages []stage, probeOnly bool) *pipeOp {
		in := schemaBase
		out := schemaBase
		for _, s := range stages {
			if s == stJoin && !probeOnly {
				out = schemaJoined
			}
		}
		return &pipeOp{
			task: t, name: "scala-" + name, lang: cost.Scala,
			stages: stages, in: in, out: out,
			overhead: workScalaOpOverhead, probeOnly: probeOnly,
		}
	}
	var chain []*pipeOp
	if withFilter {
		chain = append(chain, mk("filter", []stage{stFilter}, false))
	}
	passNames := []string{"project-keys", "partition", "build-prepare"}
	for _, n := range passNames {
		chain = append(chain, mk(n, nil, false))
	}
	// The build member loads the 375 MB table (Scala-speed) and the
	// probe member attaches embeddings.
	build := mk("hash-build", nil, false)
	build.tableLoad = workTableLoadUDF
	chain = append(chain, build)
	probe := mk("hash-probe", []stage{stJoin}, false)
	probe.in = schemaBase
	probe.out = schemaJoined
	chain = append(chain, probe)
	tailNames := []string{"validate", "rename-columns", "materialize"}
	for _, n := range tailNames {
		op := mk(n, nil, false)
		op.in = schemaJoined
		op.out = schemaJoined
		chain = append(chain, op)
	}
	return chain
}

// Plan assembles the KGE workflow for the task's variant.
func (t *Task) Plan(cfg core.RunConfig) (*dataflow.Workflow, error) {
	workers := cfg.Workers
	w := dataflow.New("kge")
	src := w.Source("candidates", t.candidateTable(), dataflow.WithScanWork(workScan))
	prev := src

	layout := variantStages(t.params.Variant.Ops)
	// A fused operator's lineage signature sums its member stages' edit
	// revisions: editing any fused-in stage re-parameterizes the whole
	// operator, which is exactly the reuse granularity the GUI exposes.
	sigFor := func(stages []stage) dataflow.NodeOpt {
		names := make([]string, len(stages))
		for i, s := range stages {
			names[i] = stageNames[s]
		}
		return t.Signature(names...)
	}
	in := schemaBase
	for _, stages := range layout {
		last := stages[len(stages)-1]
		out := schemaAfter(last)
		hasJoin := false
		hasRank := false
		hasReverse := false
		for _, s := range stages {
			switch s {
			case stJoin:
				hasJoin = true
			case stRank:
				hasRank = true
			case stReverse:
				hasReverse = true
			}
		}

		if hasJoin && t.params.Variant.ScalaJoin {
			// Replace this operator with the nine-op Scala chain; any
			// other fused stages in it must be Python-only, which the
			// paper's three-operator layout guarantees (filter+join).
			for _, s := range stages {
				if s != stFilter && s != stJoin {
					return nil, fmt.Errorf("kge: Scala join variant requires a filter+join operator, got extra stage %v", s)
				}
			}
			withFilter := len(stages) > 1
			for _, op := range t.scalaJoinChain(withFilter) {
				id := w.Op(op, dataflow.WithParallelism(workers), sigFor(stages))
				w.Connect(prev, id, 0, dataflow.RoundRobin())
				prev = id
			}
			in = schemaJoined
			continue
		}

		name := stageNames[stages[0]]
		if len(stages) > 1 {
			name = "kge-" + stageNames[stages[0]] + "+" + fmt.Sprint(len(stages)-1)
		}
		op := &pipeOp{
			task: t, name: name, lang: cost.Python,
			stages: stages, in: in, out: out, overhead: workOpOverhead,
		}
		if hasJoin {
			op.tableLoad = workTableLoadUDF
		}
		par := workers
		if hasRank || hasReverse {
			par = 1 // global sort and ordered output
		}
		id := w.Op(op, dataflow.WithParallelism(par), sigFor(stages))
		w.Connect(prev, id, 0, dataflow.RoundRobin())
		prev = id
		in = out
	}

	sink := w.Sink("recommendations")
	w.Connect(prev, sink, 0, dataflow.RoundRobin())
	return w, nil
}

// Workflow implements pipeline.Declaration.
func (t *Task) Workflow() pipeline.WorkflowDecl {
	return pipeline.WorkflowDecl{
		Sink:   "recommendations",
		UDFs:   []string{udfPipeline},
		Config: t.workflowConfig(),
		Shape: func(sink *relation.Table) (*relation.Table, map[string]float64, error) {
			recs := make([]Recommendation, 0, sink.Len())
			for _, r := range sink.Rows() {
				recs = append(recs, Recommendation{
					Rank: int(r[0].Int()), ASIN: r[1].Str(), Title: r[2].Str(), Dist: r[3].Float(),
				})
			}
			return RecommendationsToTable(recs), t.quality(recs), nil
		},
	}
}
