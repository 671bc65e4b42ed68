package core

import (
	"errors"
	"testing"

	"repro/internal/cost"
	"repro/internal/relation"
)

func TestParadigmString(t *testing.T) {
	if Script.String() != "script" || Workflow.String() != "workflow" {
		t.Fatal("paradigm names wrong")
	}
	if Paradigm(9).String() != "Paradigm(9)" {
		t.Fatal("unknown paradigm name wrong")
	}
}

func TestRunConfigNormalize(t *testing.T) {
	cfg, err := RunConfig{}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Model == nil || cfg.Workers != 1 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	if _, err := (RunConfig{Workers: -1}).Normalize(); err == nil {
		t.Fatal("expected error for negative workers")
	}
	bad := cost.Default()
	bad.SerdeBytesPerSec = -1
	if _, err := (RunConfig{Model: bad}).Normalize(); err == nil {
		t.Fatal("expected error for invalid model")
	}
}

// fakeTask lets RunBoth be tested without a real workload.
type fakeTask struct {
	fail Paradigm
	ok   bool
}

func (f *fakeTask) Name() string { return "fake" }
func (f *fakeTask) Run(p Paradigm, cfg RunConfig) (*Result, error) {
	if f.ok && p == f.fail {
		return nil, errors.New("boom")
	}
	return &Result{Task: "fake", Paradigm: p, SimSeconds: 1 + float64(p)}, nil
}

func TestRunBoth(t *testing.T) {
	s, w, err := RunBoth(&fakeTask{}, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Paradigm != Script || w.Paradigm != Workflow {
		t.Fatal("paradigms mixed up")
	}
}

func TestRunBothPropagatesErrors(t *testing.T) {
	if _, _, err := RunBoth(&fakeTask{ok: true, fail: Script}, RunConfig{}); err == nil {
		t.Fatal("expected script error")
	}
	if _, _, err := RunBoth(&fakeTask{ok: true, fail: Workflow}, RunConfig{}); err == nil {
		t.Fatal("expected workflow error")
	}
}

func TestSpeedupOver(t *testing.T) {
	a := &Result{SimSeconds: 50}
	b := &Result{SimSeconds: 100}
	if a.SpeedupOver(b) != 2 {
		t.Fatalf("speedup = %v", a.SpeedupOver(b))
	}
	zero := &Result{}
	if zero.SpeedupOver(b) != 0 {
		t.Fatal("zero-time result should report 0 speedup")
	}
}

func TestResultFieldsUsable(t *testing.T) {
	s := relation.MustSchema(relation.Field{Name: "x", Type: relation.Int})
	tbl := relation.NewTable(s)
	tbl.MustAppend(relation.Tuple{relation.IntValue(int64(1))})
	r := &Result{Output: tbl, Quality: map[string]float64{"f1": 0.9}}
	if r.Output.Len() != 1 || r.Quality["f1"] != 0.9 {
		t.Fatal("result plumbing broken")
	}
}
