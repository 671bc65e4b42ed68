package planopt

import (
	"repro/internal/cost"
	"repro/internal/dataflow"
	"repro/internal/relation"
)

// estimate is one node's inferred output cardinality. rows is the
// extrapolated row count, sample a small concrete prefix of the node's
// output (nil when the operator is opaque), and assumed marks estimates
// that rest on a fallback assumption rather than sampled evidence —
// rewrites that need real numbers (join swap, exchange choice) refuse
// to act on assumed inputs.
type estimate struct {
	rows    float64
	sample  *relation.Table
	assumed bool
}

// avgRowBytes estimates the serialized size of one row, falling back to
// a flat guess when no sample exists.
func (e *estimate) avgRowBytes() float64 {
	if e.sample != nil && e.sample.Len() > 0 {
		return float64(relation.TableBytes(e.sample)) / float64(e.sample.Len())
	}
	return 64
}

// bytes estimates the node's total output volume.
func (e *estimate) bytes() float64 { return e.rows * e.avgRowBytes() }

// estimates maps every node to its output estimate.
type estimates map[dataflow.NodeID]*estimate

// sampleTable copies at most n rows of t into a fresh table.
func sampleTable(t *relation.Table, n int) *relation.Table {
	s := relation.NewTable(t.Schema())
	for i, row := range t.Rows() {
		if i >= n {
			break
		}
		s.AppendUnchecked(row)
	}
	return s
}

// capSample trims a sample table to at most n rows.
func capSample(t *relation.Table, n int) *relation.Table {
	if t == nil || t.Len() <= n {
		return t
	}
	return sampleTable(t, n)
}

// inferEstimates walks the validated workflow in topological order and
// derives per-node cardinalities: sources are exact, builtin relational
// operators are sampled (predicates and UDFs run over a small prefix of
// real rows), and opaque custom operators degrade to a pass-through
// assumption. The workflow is never mutated and no simulated work is
// charged — this is the static half of the optimizer.
func inferEstimates(w *dataflow.Workflow, sampleRows int) (estimates, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	order, err := w.TopoIDs()
	if err != nil {
		return nil, err
	}
	est := make(estimates, len(order))
	for _, id := range order {
		switch {
		case w.IsSource(id):
			t := w.SourceTableAt(id)
			est[id] = &estimate{rows: float64(t.Len()), sample: sampleTable(t, sampleRows)}
		case w.IsSink(id):
			in := w.InEdgesOf(id)
			if len(in) == 1 {
				est[id] = est[in[0].From]
			} else {
				est[id] = &estimate{assumed: true}
			}
		default:
			est[id] = estimateOperator(w, id, est, sampleRows)
		}
	}
	return est, nil
}

// inputEstimates resolves a node's per-port input estimates.
func inputEstimates(w *dataflow.Workflow, id dataflow.NodeID, est estimates) []*estimate {
	edges := w.InEdgesOf(id)
	in := make([]*estimate, len(edges))
	for _, e := range edges {
		if e.Port < len(in) {
			in[e.Port] = est[e.From]
		}
	}
	for i, e := range in {
		if e == nil {
			in[i] = &estimate{assumed: true}
		}
	}
	return in
}

// sampling is the ExecCtx sample rows are mapped under: one worker,
// whose simulated work nobody charges, with an arena of its own.
type sampling struct{ out relation.Arena }

func (*sampling) AddWork(cost.Work)      {}
func (s *sampling) Out() *relation.Arena { return &s.out }

// estimateOperator derives one operator's output estimate from its
// inputs. Sampling failures (an erroring UDF row) degrade gracefully —
// the row contributes nothing — and unknown operator types yield an
// assumed pass-through.
func estimateOperator(w *dataflow.Workflow, id dataflow.NodeID, est estimates, sampleRows int) *estimate {
	in := inputEstimates(w, id, est)
	if len(in) == 0 {
		return &estimate{assumed: true}
	}
	op := w.OperatorAt(id)
	switch o := op.(type) {
	case *dataflow.FilterOp:
		src := in[0]
		if src.sample == nil || src.sample.Len() == 0 {
			return &estimate{rows: src.rows, sample: nil, assumed: true}
		}
		kept := relation.NewTable(src.sample.Schema())
		for _, row := range src.sample.Rows() {
			if o.Keep(row) {
				kept.AppendUnchecked(row)
			}
		}
		sel := float64(kept.Len()) / float64(src.sample.Len())
		return &estimate{rows: src.rows * sel, sample: kept, assumed: src.assumed}

	case *dataflow.ProjectOp:
		src := in[0]
		if src.sample == nil {
			return &estimate{rows: src.rows, assumed: true}
		}
		out, err := relation.Project(src.sample, o.Names...)
		if err != nil {
			return &estimate{rows: src.rows, assumed: true}
		}
		return &estimate{rows: src.rows, sample: out, assumed: src.assumed}

	case *dataflow.MapOp:
		src := in[0]
		if src.sample == nil || src.sample.Len() == 0 {
			return &estimate{rows: src.rows, assumed: true}
		}
		// The sample goes through the operator's own worker a row at a
		// time, so a row the UDF rejects costs the sample that row only.
		ec := &sampling{}
		inst, err := o.NewInstance(ec, []*relation.Schema{src.sample.Schema()})
		if err != nil {
			return &estimate{rows: src.rows, assumed: true}
		}
		out, rows := relation.NewTable(o.Out), src.sample.Rows()
		for i := range rows {
			produced, err := inst.Process(ec, 0, rows[i:i+1])
			if err != nil {
				continue
			}
			for _, p := range produced {
				out.AppendUnchecked(p)
			}
		}
		ratio := float64(out.Len()) / float64(src.sample.Len())
		return &estimate{rows: src.rows * ratio, sample: capSample(out, sampleRows), assumed: src.assumed}

	case *dataflow.HashJoinOp:
		build, probe := in[0], in[1]
		if build.sample == nil || probe.sample == nil ||
			build.sample.Len() == 0 || probe.sample.Len() == 0 {
			rows := probe.rows
			if build.rows < rows {
				rows = build.rows
			}
			return &estimate{rows: rows, assumed: true}
		}
		joined, err := relation.HashJoin(probe.sample, build.sample, o.ProbeKey, o.BuildKey, o.Kind)
		if err != nil {
			return &estimate{rows: probe.rows, assumed: true}
		}
		// Scale the sampled match count by the inverse sampling
		// fractions of both sides (independence assumption).
		scale := (build.rows / float64(build.sample.Len())) * (probe.rows / float64(probe.sample.Len()))
		return &estimate{
			rows:    float64(joined.Len()) * scale,
			sample:  capSample(joined, sampleRows),
			assumed: build.assumed || probe.assumed,
		}

	case *dataflow.GroupByOp:
		src := in[0]
		if src.sample == nil || src.sample.Len() == 0 {
			return &estimate{rows: src.rows, assumed: true}
		}
		grouped, err := relation.GroupBy(src.sample, o.Keys, o.Aggs)
		if err != nil {
			return &estimate{rows: src.rows, assumed: true}
		}
		sel := float64(grouped.Len()) / float64(src.sample.Len())
		rows := src.rows * sel
		if rows > src.rows {
			rows = src.rows
		}
		return &estimate{rows: rows, sample: grouped, assumed: src.assumed}

	case *dataflow.SortOp:
		return &estimate{rows: in[0].rows, sample: in[0].sample, assumed: in[0].assumed}

	case *dataflow.LimitOp:
		rows := in[0].rows
		if float64(o.N) < rows {
			rows = float64(o.N)
		}
		return &estimate{rows: rows, sample: capSample(in[0].sample, o.N), assumed: in[0].assumed}

	case *dataflow.UnionOp:
		rows := in[0].rows + in[1].rows
		var sample *relation.Table
		if in[0].sample != nil && in[1].sample != nil && in[0].sample.Schema().Equal(in[1].sample.Schema()) {
			sample = relation.NewTable(in[0].sample.Schema())
			for _, src := range []*relation.Table{in[0].sample, in[1].sample} {
				for _, row := range src.Rows() {
					sample.AppendUnchecked(row)
				}
			}
			sample = capSample(sample, sampleRows)
		}
		return &estimate{rows: rows, sample: sample, assumed: in[0].assumed || in[1].assumed}

	default:
		// Opaque custom operator: assume pass-through cardinality over
		// all ports and no knowledge of the output rows.
		rows := 0.0
		assumed := true
		for _, e := range in {
			rows += e.rows
		}
		return &estimate{rows: rows, assumed: assumed}
	}
}
