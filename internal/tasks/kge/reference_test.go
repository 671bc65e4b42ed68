package kge

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/dataflow"
	"repro/internal/ml/kge"
	"repro/internal/pipeline"
	"repro/internal/relation"
)

// refPipeInstance and stage3Delta are pipeInstance and the delta stage
// as they were before a workflow row stopped costing heap objects: every
// stage decodes the vectors it reads into fresh slices, computes the
// delta into a fresh slice, encodes what it hands on into a fresh
// string and boxes each row in a tuple of its own. Kept verbatim as the
// reference the current operator must reproduce.

// stage3Delta computes u + r - t.
func (t *Task) stage3Delta(emb []float64) []float64 {
	d := make([]float64, len(emb))
	for i := range emb {
		d[i] = t.userV[i] + t.relVec[i] - emb[i]
	}
	return d
}

type refPipeInstance struct {
	op     *pipeOp
	buffer []scored // only for rank stages
	rankN  int      // rows seen by rank (for sort cost)
	emit   int      // output counter for reverse-stage ranks
}

// hasStage reports whether the op runs stage s.
func (pi *refPipeInstance) hasStage(s stage) bool {
	for _, st := range pi.op.stages {
		if st == s {
			return true
		}
	}
	return false
}

func (pi *refPipeInstance) Process(ec dataflow.ExecCtx, _ int, rows []relation.Tuple) ([]relation.Tuple, error) {
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

func (pi *refPipeInstance) EndPort(ec dataflow.ExecCtx, _ int) ([]relation.Tuple, error) {
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

// refOp is a pipeOp whose instances are the reference's.
type refOp struct{ *pipeOp }

// NewInstance charges the embedding-table build (when this operator
// joins): every worker loads its own copy before the first tuple,
// gating the stream — the behaviour the Table I Scala swap attacks.
func (o refOp) NewInstance(ec dataflow.ExecCtx, _ []*relation.Schema) (dataflow.Instance, error) {
	if o.tableLoad != (cost.Work{}) {
		ec.AddWork(o.tableLoad)
	}
	return &refPipeInstance{op: o.pipeOp}, nil
}

// refTask is the task with its workflow run by the reference operators:
// its plan is the task's, node for node and edge for edge, with every
// pipeOp wrapped in a refOp.
type refTask struct{ *Task }

func (rt refTask) Plan(cfg core.RunConfig) (*dataflow.Workflow, error) {
	w, err := rt.Task.Plan(cfg)
	if err != nil {
		return nil, err
	}
	order, err := w.TopoIDs()
	if err != nil {
		return nil, err
	}
	ref := dataflow.New(w.Name())
	ids := map[dataflow.NodeID]dataflow.NodeID{}
	for _, id := range order {
		switch {
		case w.IsSource(id):
			ids[id] = ref.Source(w.NameOf(id), w.SourceTableAt(id), dataflow.WithScanWork(workScan))
		case w.IsSink(id):
			ids[id] = ref.Sink(w.NameOf(id))
		default:
			op, ok := w.OperatorAt(id).(*pipeOp)
			if !ok {
				return nil, fmt.Errorf("node %s is not a pipeOp", w.NameOf(id))
			}
			ids[id] = ref.Op(refOp{op}, dataflow.WithParallelism(w.ParallelismOf(id)))
		}
		for _, e := range w.InEdgesOf(id) {
			ref.Connect(ids[e.From], ids[id], e.Port, e.Part)
		}
	}
	return ref, nil
}

// workflowLayouts is every operator layout the task plans: Ops 1–6,
// and the Scala join at Ops 3–6.
func workflowLayouts() []Variant {
	var vs []Variant
	for ops := 1; ops <= 6; ops++ {
		vs = append(vs, Variant{Ops: ops})
	}
	for ops := 3; ops <= 6; ops++ {
		vs = append(vs, Variant{Ops: ops, ScalaJoin: true})
	}
	return vs
}

// TestWorkflowMatchesReference runs every layout through the current
// and the reference operators at 1 and 4 workers and wants the same
// output, the same batches, edge tuples and edge bytes, and the same
// simulated seconds: bit for bit at one worker, to 1e-9 relative at
// four, where workers fold their work in batch-arrival order.
func TestWorkflowMatchesReference(t *testing.T) {
	for _, v := range workflowLayouts() {
		for _, workers := range []int{1, 4} {
			name := fmt.Sprintf("ops=%d,scala=%t,workers=%d", v.Ops, v.ScalaJoin, workers)
			task := newTask(t, 400, v)
			cfg := core.RunConfig{Workers: workers}
			got, err := task.Run(core.Workflow, cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want, err := pipeline.Run(refTask{task}, core.Workflow, cfg)
			if err != nil {
				t.Fatalf("%s: reference: %v", name, err)
			}
			if !got.Output.Equal(want.Output) {
				t.Errorf("%s: output differs from the reference", name)
			}
			g, r := got.Trace, want.Trace
			if g.Batches != r.Batches || g.EdgeTuples != r.EdgeTuples || g.EdgeBytes != r.EdgeBytes {
				t.Errorf("%s: batches/edge tuples/edge bytes %d/%d/%d, reference %d/%d/%d",
					name, g.Batches, g.EdgeTuples, g.EdgeBytes, r.Batches, r.EdgeTuples, r.EdgeBytes)
			}
			if workers == 1 && got.SimSeconds != want.SimSeconds ||
				math.Abs(got.SimSeconds-want.SimSeconds) > 1e-9*math.Abs(want.SimSeconds) {
				t.Errorf("%s: %v simulated seconds, reference %v", name, got.SimSeconds, want.SimSeconds)
			}
		}
	}
}
