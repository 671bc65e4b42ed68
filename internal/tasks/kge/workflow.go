package kge

import (
	"fmt"
	"math"

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
	stRank                 // keep the K nearest (blocking)
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
		// Rank keeps its nearest rows across batches; reverse numbers
		// its output with a per-instance counter. Everything else is
		// row-local.
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

// NewInstance implements dataflow.Operator. It charges the
// embedding-table build when this operator joins: every worker loads
// its own copy before the first tuple, gating the stream — the
// behaviour the Table I Scala swap attacks.
func (o *pipeOp) NewInstance(ec dataflow.ExecCtx, _ []*relation.Schema) (dataflow.Instance, error) {
	if o.tableLoad != (cost.Work{}) {
		ec.AddWork(o.tableLoad)
	}
	pi := &pipeInstance{
		op:      o,
		reshape: !o.out.Equal(o.in),
		embCol:  o.in.IndexOf("emb"), deltaCol: o.in.IndexOf("delta"), distCol: o.in.IndexOf("dist"),
	}
	for _, s := range o.stages {
		pi.rank = pi.rank || s == stRank
		pi.reverse = pi.reverse || s == stReverse
	}
	if pi.rank {
		pi.top = o.task.newTop()
	}
	if len(o.stages) > 0 {
		pi.last = o.stages[len(o.stages)-1]
	}
	return pi, nil
}

// pipeInstance runs an operator's fused stages on each row. Stages
// fused into one operator hand each other decoded vectors in the
// instance's scratch, so a vector is encoded only when it is a column
// of the operator's output schema, and an input column that passes
// through unchanged is emitted as the input cell. Every row it emits is
// carved from the worker's arena (ExecCtx.Out); a batch's new encodings
// are appended to one buffer that becomes one string, and each encoded
// cell is a substring of it.
type pipeInstance struct {
	op                        *pipeOp
	reshape                   bool  // whether a kept row changes shape, or passes on as it came
	last                      stage // the operator's last stage, which shapes its rows
	rank, reverse             bool  // whether the operator ranks, reverse-looks-up
	embCol, deltaCol, distCol int   // the input's emb, delta and dist columns, or -1

	top  *kge.Top[ranked] // the rank stage's nearest candidates, emitted at EndPort
	emit int              // output counter for reverse-stage ranks

	vec, delta []float64 // the row's decoded embedding and its delta
	enc        []byte    // the open batch's encodings
	pending    []pending // the cells of the open batch that take them
}

// pending is a cell of the open batch waiting for its encoding,
// enc[lo:hi].
type pending struct {
	row    relation.Tuple
	col    int
	lo, hi int
}

func (pi *pipeInstance) Process(ec dataflow.ExecCtx, _ int, rows []relation.Tuple) ([]relation.Tuple, error) {
	ec.AddWork(pi.op.overhead.Scale(float64(len(rows))))
	t := pi.op.task
	out, width := ec.Out(), pi.op.out.Len()
	if !pi.reshape {
		width = 0
	}
	for i, r := range rows {
		// vec, delta and dist hold once a stage has computed or decoded
		// them; the model row a join attaches is read in place.
		var vec, delta []float64
		var dist float64
		var entity string
		var err error
		haveDist, keep := false, true
		for _, s := range pi.op.stages {
			if !keep {
				break
			}
			switch s {
			case stFilter:
				ec.AddWork(workFilter)
				keep = r[2].Bool()
			case stJoin:
				if pi.op.probeOnly {
					break
				}
				ec.AddWork(workMerge)
				if vec, err = t.stage2Embedding(r[0].Str()); err != nil {
					return nil, err
				}
			case stDelta:
				ec.AddWork(workDelta)
				if vec == nil {
					if vec, err = pi.decodeEmb(r[pi.embCol]); err != nil {
						return nil, err
					}
				}
				pi.delta = t.stage3DeltaInto(pi.delta, vec)
				delta = pi.delta
			case stNorm:
				ec.AddWork(workNorm)
				if delta == nil {
					if pi.delta, err = kge.DecodeVecInto(pi.delta, r[pi.deltaCol].Str()); err != nil {
						return nil, err
					}
					delta = pi.delta
				}
				dist, haveDist = stage4Dist(delta), true
			case stRank:
				if !haveDist {
					dist = r[pi.distCol].Float()
				}
				c := ranked{asin: r[0], title: r[1], dist: dist}
				if pi.embCol >= 0 {
					c.emb = r[pi.embCol]
				} else {
					c.vec = vec // the model row: this operator joined
				}
				pi.top.Offer(c)
				keep = false // emitted at EndPort, if among the nearest
			case stReverse:
				ec.AddWork(workReverse)
				if vec == nil {
					if vec, err = pi.decodeEmb(r[pi.embCol]); err != nil {
						return nil, err
					}
				}
				if !haveDist {
					dist = r[pi.distCol].Float()
				}
				if entity, err = t.model.ReverseLookup(vec); err != nil {
					return nil, err
				}
			}
		}
		if !keep {
			continue
		}
		if !out.Fits(1, width) {
			out.Reserve(len(rows)-i, (len(rows)-i)*width)
		}
		if !pi.reshape {
			out.Append(r)
			continue
		}
		row := out.Row(width)
		row[0], row[1] = r[0], r[1]
		switch pi.last {
		case stJoin:
			row[2] = r[2]
			pi.encode(row, 3, vec)
		case stDelta:
			pi.embCell(row, 2, r, vec)
			pi.encode(row, 3, delta)
		case stNorm:
			pi.embCell(row, 2, r, vec)
			row[3] = relation.FloatValue(dist)
		case stReverse:
			pi.emit++
			row[0], row[1], row[2], row[3] = relation.IntValue(int64(pi.emit)), relation.StringValue(entity), r[1], relation.FloatValue(dist)
		}
	}
	return pi.batch(out), nil
}

// decodeEmb decodes an embedding cell into the instance's scratch.
func (pi *pipeInstance) decodeEmb(cell relation.Value) ([]float64, error) {
	var err error
	pi.vec, err = kge.DecodeVecInto(pi.vec, cell.Str())
	return pi.vec, err
}

// embCell sets row[col] to the row's embedding: the input's cell when
// the row arrived with one, else the encoding of vec, the model row.
func (pi *pipeInstance) embCell(row relation.Tuple, col int, in relation.Tuple, vec []float64) {
	if pi.embCol >= 0 {
		row[col] = in[pi.embCol]
		return
	}
	pi.encode(row, col, vec)
}

// encode appends v's encoding to the open batch's buffer and marks
// row[col] as the cell that takes it.
func (pi *pipeInstance) encode(row relation.Tuple, col int, v []float64) {
	lo := len(pi.enc)
	pi.enc = kge.AppendVec(pi.enc, v)
	pi.pending = append(pi.pending, pending{row: row, col: col, lo: lo, hi: len(pi.enc)})
}

// batch closes the open batch: its encodings become one string, each
// pending cell a substring of it. The buffer is reused for the next
// batch; the string, which the rows keep, is never written again.
func (pi *pipeInstance) batch(out *relation.Arena) []relation.Tuple {
	if len(pi.pending) > 0 {
		s := string(pi.enc)
		for _, p := range pi.pending {
			p.row[p.col] = relation.StringValue(s[p.lo:p.hi])
		}
		pi.enc, pi.pending = pi.enc[:0], pi.pending[:0]
	}
	return out.Batch()
}

func (pi *pipeInstance) EndPort(ec dataflow.ExecCtx, _ int) ([]relation.Tuple, error) {
	if !pi.rank {
		return nil, nil
	}
	// The simulated sort still ranks every candidate seen.
	n := float64(pi.top.Seen())
	if n > 1 {
		ec.AddWork(workSortCmp.Scale(n * math.Log2(n)))
	}
	top := pi.top.Sorted()
	width, out := pi.op.out.Len(), ec.Out()
	out.Reserve(len(top), len(top)*width)
	for i, s := range top {
		row := out.Row(width)
		if !pi.reverse {
			row[0], row[1], row[2], row[3] = s.asin, s.title, s.emb, relation.FloatValue(s.dist)
			continue
		}
		ec.AddWork(workReverse)
		vec := s.vec
		if vec == nil {
			var err error
			if vec, err = pi.decodeEmb(s.emb); err != nil {
				return nil, err
			}
		}
		entity, err := pi.op.task.model.ReverseLookup(vec)
		if err != nil {
			return nil, err
		}
		row[0], row[1], row[2], row[3] = relation.IntValue(int64(i+1)), relation.StringValue(entity), s.title, relation.FloatValue(s.dist)
	}
	return pi.batch(out), nil
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
