package kge

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/relation"
)

func newTask(t *testing.T, products int, v Variant) *Task {
	t.Helper()
	task, err := New(Params{Products: products, Seed: 2, Variant: v})
	if err != nil {
		t.Fatal(err)
	}
	return task
}

func TestNewValidates(t *testing.T) {
	if _, err := New(Params{Products: 0}); err == nil {
		t.Fatal("expected error for zero products")
	}
	if _, err := New(Params{Products: 10, Users: -1}); err == nil {
		t.Fatal("expected error for negative users")
	}
	if _, err := New(Params{Products: 10, TopK: -1}); err == nil {
		t.Fatal("expected error for negative top-k")
	}
	if _, err := New(Params{Products: 10, Variant: Variant{Ops: 7}}); err == nil {
		t.Fatal("expected error for 7 ops")
	}
}

// TestFusedDistanceIsBitEqual holds the fused distance the script and
// the oracle score with to the workflow's two stages, computed on a
// copied row, for every entity of the model.
func TestFusedDistanceIsBitEqual(t *testing.T) {
	for _, seed := range []uint64{1, 7} {
		task, err := New(Params{Products: 680, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range task.world.EntityNames() {
			emb, err := task.model.Embedding(e)
			if err != nil {
				t.Fatal(err)
			}
			row, err := task.stage2Embedding(e)
			if err != nil {
				t.Fatal(err)
			}
			want, got := stage4Dist(task.stage3DeltaInto(nil, emb)), task.stageDist(row)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d, %s: fused distance %v, staged %v", seed, e, got, want)
			}
		}
	}
}

func TestOracleRecommendsUserCategory(t *testing.T) {
	task := newTask(t, 800, Variant{})
	recs, err := task.Oracle()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 10 {
		t.Fatalf("recommendations = %d", len(recs))
	}
	q := task.quality(recs)
	if q["hit_rate"] < 0.6 {
		t.Fatalf("hit rate = %v, embeddings failed to rank the user's category", q["hit_rate"])
	}
}

func TestOracleSkipsOutOfStock(t *testing.T) {
	task := newTask(t, 500, Variant{})
	recs, err := task.Oracle()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		p := task.World().ProductByASIN(r.ASIN)
		if p == nil || !p.InStock {
			t.Fatalf("recommended unavailable product %s", r.ASIN)
		}
	}
}

func TestScriptMatchesOracle(t *testing.T) {
	task := newTask(t, 600, Variant{})
	res, err := task.Run(core.Script, core.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := task.Oracle()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Output.Equal(RecommendationsToTable(recs)) {
		t.Fatal("script output differs from oracle")
	}
}

func TestAllVariantsMatchOracle(t *testing.T) {
	for ops := 1; ops <= 6; ops++ {
		task := newTask(t, 400, Variant{Ops: ops})
		res, err := task.Run(core.Workflow, core.RunConfig{})
		if err != nil {
			t.Fatalf("ops=%d: %v", ops, err)
		}
		recs, err := task.Oracle()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Output.Equal(RecommendationsToTable(recs)) {
			t.Fatalf("ops=%d: workflow output differs from oracle", ops)
		}
	}
}

func TestScalaVariantMatchesOracle(t *testing.T) {
	task := newTask(t, 400, Variant{Ops: 3, ScalaJoin: true})
	res, err := task.Run(core.Workflow, core.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := task.Oracle()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Output.Equal(RecommendationsToTable(recs)) {
		t.Fatal("scala workflow output differs from oracle")
	}
	// The nine-operator decomposition must show in the operator count.
	py := newTask(t, 400, Variant{Ops: 3})
	pyRes, err := py.Run(core.Workflow, core.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Operators <= pyRes.Operators {
		t.Fatalf("scala variant has %d operators, python %d", res.Operators, pyRes.Operators)
	}
}

func TestScalaJoinRequiresCompatibleLayout(t *testing.T) {
	task := newTask(t, 100, Variant{Ops: 1, ScalaJoin: true})
	if _, err := task.Run(core.Workflow, core.RunConfig{}); err == nil {
		t.Fatal("expected error for Scala join inside a fully fused operator")
	}
}

func TestScalaFasterAtSmallScaleOnly(t *testing.T) {
	// Table I shape: a clear Scala advantage at 6.8k-scale inputs, a
	// vanishing relative advantage at 10x the data.
	small := 3000
	py := newTask(t, small, Variant{Ops: 3})
	sc := newTask(t, small, Variant{Ops: 3, ScalaJoin: true})
	rp, err := py.Run(core.Workflow, core.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := sc.Run(core.Workflow, core.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	smallGain := (rp.SimSeconds - rs.SimSeconds) / rp.SimSeconds
	if smallGain < 0.1 {
		t.Fatalf("small-scale Scala gain = %.1f%%, want > 10%%", smallGain*100)
	}
	big := 30000
	pyB := newTask(t, big, Variant{Ops: 3})
	scB := newTask(t, big, Variant{Ops: 3, ScalaJoin: true})
	rpb, err := pyB.Run(core.Workflow, core.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rsb, err := scB.Run(core.Workflow, core.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	bigGain := (rpb.SimSeconds - rsb.SimSeconds) / rpb.SimSeconds
	if bigGain >= smallGain {
		t.Fatalf("Scala gain should shrink with scale: small %.1f%%, big %.1f%%", smallGain*100, bigGain*100)
	}
	if bigGain > 0.08 {
		t.Fatalf("large-scale Scala gain = %.1f%%, want < 8%%", bigGain*100)
	}
}

func TestScriptBeatsWorkflow(t *testing.T) {
	// Figure 13c shape: the notebook wins KGE at every scale.
	task := newTask(t, 3000, Variant{})
	s, w, err := core.RunBoth(task, core.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if s.SimSeconds >= w.SimSeconds {
		t.Fatalf("script (%v) should beat workflow (%v) on KGE", s.SimSeconds, w.SimSeconds)
	}
	ratio := w.SimSeconds / s.SimSeconds
	if ratio < 1.1 || ratio > 1.9 {
		t.Fatalf("workflow/script ratio = %v, want in the paper's 1.25-1.5 band", ratio)
	}
}

func TestModularitySweepShape(t *testing.T) {
	// Figure 12b shape: splitting the pipeline speeds it up with
	// diminishing returns; 6 ops is not better than 5.
	times := make([]float64, 7)
	for ops := 1; ops <= 6; ops++ {
		task := newTask(t, 3000, Variant{Ops: ops})
		res, err := task.Run(core.Workflow, core.RunConfig{})
		if err != nil {
			t.Fatal(err)
		}
		times[ops] = res.SimSeconds
	}
	if times[5] >= times[1] {
		t.Fatalf("5 ops (%v) should beat 1 op (%v)", times[5], times[1])
	}
	if times[3] > times[1]+1e-9 {
		t.Fatalf("3 ops (%v) should not be slower than 1 op (%v)", times[3], times[1])
	}
	// Diminishing returns: the 5->6 step is no longer an improvement.
	if times[6] < times[5]-0.05*times[5] {
		t.Fatalf("6 ops (%v) improved noticeably over 5 (%v)", times[6], times[5])
	}
}

func TestWorkersSpeedUpBothParadigms(t *testing.T) {
	task := newTask(t, 8000, Variant{})
	for _, p := range []core.Paradigm{core.Script, core.Workflow} {
		r1, err := task.Run(p, core.RunConfig{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		r4, err := task.Run(p, core.RunConfig{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if r4.SimSeconds >= r1.SimSeconds {
			t.Fatalf("%s: 4 workers (%v) not faster than 1 (%v)", p, r4.SimSeconds, r1.SimSeconds)
		}
	}
}

func TestParallelWorkflowMatchesOracle(t *testing.T) {
	task := newTask(t, 2000, Variant{})
	res, err := task.Run(core.Workflow, core.RunConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := task.Oracle()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Output.Equal(RecommendationsToTable(recs)) {
		t.Fatal("parallel workflow output differs from oracle")
	}
}

func TestWorkflowLoCExceedsScript(t *testing.T) {
	// Figure 12a shape: KGE is the one task where the workflow needs
	// slightly more lines than the notebook.
	task := newTask(t, 200, Variant{})
	s, w, err := core.RunBoth(task, core.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if w.LinesOfCode <= s.LinesOfCode {
		t.Fatalf("paper shape violated: workflow LoC %d <= script LoC %d", w.LinesOfCode, s.LinesOfCode)
	}
}

// arenaCtx is an ExecCtx whose arena is drawn from a source, as the
// executor draws a worker's.
type arenaCtx struct{ out relation.Arena }

func (*arenaCtx) AddWork(cost.Work)      {}
func (c *arenaCtx) Out() *relation.Arena { return &c.out }

// deepCopy copies rows down to their string bytes, so a later write to
// the bytes a cell points at shows as a difference.
func deepCopy(rows []relation.Tuple) []relation.Tuple {
	out := make([]relation.Tuple, len(rows))
	for i, r := range rows {
		out[i] = make(relation.Tuple, len(r))
		for j, v := range r {
			if v.Kind() == relation.String {
				v = relation.StringValue(strings.Clone(v.Str()))
			}
			out[i][j] = v
		}
	}
	return out
}

// TestWorkflowRowsDoNotAlias drives one instance of every operator of
// every layout, in plan order, through the candidates in batches of 16,
// each operator's input being the batches the one before it emitted.
// Once an operator has seen its last batch and its EndPort, every row
// it emitted must still read what it read when it was emitted, also
// after an append to each batch and each row: no later batch's rows,
// cells or encodings may reuse what an earlier one handed out.
func TestWorkflowRowsDoNotAlias(t *testing.T) {
	const batchRows = 16
	for _, v := range workflowLayouts() {
		task := newTask(t, 400, v)
		w, err := task.Plan(core.RunConfig{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		order, err := w.TopoIDs()
		if err != nil {
			t.Fatal(err)
		}
		var in [][]relation.Tuple
		for rows := task.candidateTable().Rows(); len(rows) > 0; rows = rows[min(batchRows, len(rows)):] {
			in = append(in, rows[:min(batchRows, len(rows))])
		}
		for _, id := range order {
			op, ok := w.OperatorAt(id).(*pipeOp)
			if !ok {
				continue
			}
			name := fmt.Sprintf("ops=%d,scala=%t: %s", v.Ops, v.ScalaJoin, op.name)
			var src relation.ArenaSource
			ec := &arenaCtx{out: src.Arena()}
			inst, err := op.NewInstance(ec, []*relation.Schema{op.in})
			if err != nil {
				t.Fatal(err)
			}
			var out, was [][]relation.Tuple
			keep := func(b []relation.Tuple, err error) {
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if len(b) > 0 {
					out, was = append(out, b), append(was, deepCopy(b))
				}
			}
			for _, b := range in {
				keep(inst.Process(ec, 0, b))
			}
			keep(inst.EndPort(ec, 0))
			if len(out) < 2 && len(in) > 1 && !op.Desc().BlockingPorts[0] {
				t.Fatalf("%s: emitted %d batches, want several", name, len(out))
			}
			for _, b := range out {
				_ = append(b, relation.Tuple{relation.StringValue("overflow")})
				for i := range b {
					_ = append(b[i], relation.StringValue("overflow"))
				}
			}
			for k, b := range out {
				for i := range b {
					if !b[i].Equal(was[k][i]) {
						t.Fatalf("%s: row %d of batch %d reads %v, emitted as %v", name, i, k, b[i], was[k][i])
					}
				}
			}
			in = out
		}
		if len(in) != 1 || len(in[0]) != task.params.TopK {
			t.Fatalf("ops=%d,scala=%t: the last operator emitted %d batches, want one of the top %d", v.Ops, v.ScalaJoin, len(in), task.params.TopK)
		}
	}
}
