package dataflow

import (
	"context"
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/relation"
)

func TestTimelineShowsPipelineOverlap(t *testing.T) {
	in := intTable(5000)
	w := New("tl")
	src := w.Source("src", in)
	op1 := NewMap("stage-a", cost.Python, in.Schema(), func(r relation.Tuple, out *Rows) error {
		out.Emit(r...)
		return nil
	})
	op1.Work = cost.Work{Interp: 1e-3}
	a := w.Op(op1)
	op2 := NewMap("stage-b", cost.Python, in.Schema(), func(r relation.Tuple, out *Rows) error {
		out.Emit(r...)
		return nil
	})
	op2.Work = cost.Work{Interp: 1e-3}
	b := w.Op(op2)
	snk := w.Sink("out")
	w.Connect(src, a, 0, RoundRobin())
	w.Connect(a, b, 0, RoundRobin())
	w.Connect(b, snk, 0, RoundRobin())

	res, err := w.Run(context.Background(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	spans, err := Timeline(res.Trace, cost.Default())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]OpSpan{}
	for _, s := range spans {
		byName[s.Name] = s
		if s.Finish < s.Start {
			t.Fatalf("inverted span %+v", s)
		}
	}
	sa, ok1 := byName["stage-a"]
	sb, ok2 := byName["stage-b"]
	if !ok1 || !ok2 {
		t.Fatalf("stages missing from timeline: %v", spans)
	}
	// Pipelining: stage-b starts before stage-a finishes.
	if sb.Start >= sa.Finish {
		t.Fatalf("no overlap: a=%+v b=%+v", sa, sb)
	}
}

func TestRenderTimeline(t *testing.T) {
	out := RenderTimeline([]OpSpan{
		{Name: "src", Start: 0, Finish: 2},
		{Name: "op", Start: 1, Finish: 4},
	}, 40)
	if !strings.Contains(out, "src") || !strings.Contains(out, "█") {
		t.Fatalf("render:\n%s", out)
	}
	if RenderTimeline(nil, 40) != "(empty timeline)\n" {
		t.Fatal("empty timeline render wrong")
	}
	// Degenerate zero-length spans still draw a cell.
	out = RenderTimeline([]OpSpan{{Name: "x", Start: 0, Finish: 0}}, 40)
	if !strings.Contains(out, "█") {
		t.Fatalf("zero span render:\n%s", out)
	}
}

func TestTimelineErrors(t *testing.T) {
	if _, err := Timeline(nil, cost.Default()); err == nil {
		t.Fatal("expected error for nil trace")
	}
}
