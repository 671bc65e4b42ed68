package gotta

import (
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/relation"
)

func newTask(t *testing.T, paragraphs int) *Task {
	t.Helper()
	task, err := New(Params{Paragraphs: paragraphs, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return task
}

func TestNewValidates(t *testing.T) {
	if _, err := New(Params{Paragraphs: 0}); err == nil {
		t.Fatal("expected error for zero paragraphs")
	}
	if _, err := New(Params{Paragraphs: 2, SentencesPer: -1}); err == nil {
		t.Fatal("expected error for negative sentences")
	}
}

func TestParadigmsAgreeOnAnswers(t *testing.T) {
	task := newTask(t, 4)
	s, w, err := core.RunBoth(task, core.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Output.Equal(w.Output) {
		t.Fatal("paradigms disagree on generated answers")
	}
	if s.Output.Len() != task.numQAs() {
		t.Fatalf("answers = %d, want %d", s.Output.Len(), task.numQAs())
	}
}

func TestGenerationQuality(t *testing.T) {
	task := newTask(t, 8)
	res, err := task.Run(core.Script, core.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Quality["exact_match"] < 0.8 {
		t.Fatalf("exact match = %v", res.Quality["exact_match"])
	}
	if res.Quality["f1"] < res.Quality["exact_match"] {
		t.Fatal("F1 cannot be below exact match")
	}
}

func TestWorkflowBeatsScript(t *testing.T) {
	// Figure 13d shape: the workflow wins GOTTA by 1.5-3x because the
	// script pays the object store and the 1-CPU torch pin.
	task := newTask(t, 4)
	s, w, err := core.RunBoth(task, core.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ratio := s.SimSeconds / w.SimSeconds
	if ratio < 1.5 || ratio > 4 {
		t.Fatalf("script/workflow ratio = %v, want in the paper's 1.5-3 band", ratio)
	}
}

func TestScriptGapNarrowsWithWorkers(t *testing.T) {
	// Figure 14b shape: more workers shrink the script's deficit, but
	// the workflow stays ahead.
	task := newTask(t, 4)
	gap := func(workers int) float64 {
		s, w, err := core.RunBoth(task, core.RunConfig{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if s.SimSeconds <= w.SimSeconds {
			t.Fatalf("workers=%d: workflow (%v) lost its lead (script %v)", workers, w.SimSeconds, s.SimSeconds)
		}
		return s.SimSeconds - w.SimSeconds
	}
	g1 := gap(1)
	g4 := gap(4)
	if g4 >= g1 {
		t.Fatalf("gap should narrow with workers: 1w=%v 4w=%v", g1, g4)
	}
}

func TestScalingSublinear(t *testing.T) {
	// Fixed model-loading costs amortize: 16 paragraphs cost less than
	// 16x one paragraph under both paradigms.
	t1 := newTask(t, 1)
	t16 := newTask(t, 16)
	for _, p := range []core.Paradigm{core.Script, core.Workflow} {
		r1, err := t1.Run(p, core.RunConfig{})
		if err != nil {
			t.Fatal(err)
		}
		r16, err := t16.Run(p, core.RunConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if r16.SimSeconds >= 16*r1.SimSeconds {
			t.Fatalf("%s: scaling superlinear: 1p=%v 16p=%v", p, r1.SimSeconds, r16.SimSeconds)
		}
		if r16.SimSeconds <= r1.SimSeconds {
			t.Fatalf("%s: more data should cost more", p)
		}
	}
}

func TestLoCComparable(t *testing.T) {
	task := newTask(t, 2)
	s, w, err := core.RunBoth(task, core.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if w.LinesOfCode >= s.LinesOfCode {
		t.Fatalf("paper shape violated: workflow LoC %d >= script LoC %d", w.LinesOfCode, s.LinesOfCode)
	}
}

func TestParallelProcsReported(t *testing.T) {
	task := newTask(t, 8)
	res, err := task.Run(core.Script, core.RunConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.ParallelProcs != 4 {
		t.Fatalf("parallel processes = %d, want 4", res.ParallelProcs)
	}
}

// nopCtx is the ExecCtx of a direct Process call: one worker, work
// discarded, one output arena for every call.
type nopCtx struct{ out relation.Arena }

func (*nopCtx) AddWork(cost.Work)      {}
func (c *nopCtx) Out() *relation.Arena { return &c.out }

// The generator carves the batches of its run from one arena: appending
// to one batch, or to a row of it, must leave every other batch as it
// was. Forty 2-row batches take the arena past the point where one
// chunk holds several.
func TestGenerateBatchesDoNotAlias(t *testing.T) {
	task := newTask(t, 2)
	var prompts []relation.Tuple
	for _, p := range task.passages {
		for qi, qa := range p.QAs {
			prompts = append(prompts, relation.Tuple{relation.StringValue(p.ID), relation.IntValue(int64(qi)),
				relation.StringValue(qa.Cloze), relation.StringValue(qa.Answer), relation.StringValue(qa.Context)})
		}
	}
	if len(prompts) < 4 {
		t.Fatalf("fixture has %d prompts", len(prompts))
	}
	ec := &nopCtx{}
	inst, err := (&generateOp{task: task}).NewInstance(ec, []*relation.Schema{promptSchema})
	if err != nil {
		t.Fatal(err)
	}
	var batches, was [40][]relation.Tuple
	for k := range batches {
		lo := 2 * k % (len(prompts) - 1)
		out, err := inst.Process(ec, 0, prompts[lo:lo+2])
		if err != nil {
			t.Fatal(err)
		}
		batches[k] = out
		for _, r := range out {
			was[k] = append(was[k], r.Clone())
		}
	}
	for k, b := range batches {
		_ = append(b, relation.Tuple{relation.StringValue("overflow")})
		for i := range b {
			_ = append(b[i], relation.StringValue("overflow"))
		}
		for j := range batches {
			for i, r := range batches[j] {
				if !r.Equal(was[j][i]) {
					t.Fatalf("appending to batch %d changed row %d of batch %d: %v, was %v", k, i, j, r, was[j][i])
				}
			}
		}
	}
}
