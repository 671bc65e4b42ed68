package experiments

import "testing"

// quick is a reduced-size config so the whole suite runs in seconds.
var quick = Config{Scale: 20, Seed: 1}

func TestTable1Shape(t *testing.T) {
	rows, err := Table1(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	small := rows[0]
	if !small.OutputsAgree {
		t.Fatal("Python and Scala variants disagree")
	}
	if small.ScalaSecs >= small.PythonSecs {
		t.Fatalf("Scala (%v) should beat Python (%v) at small scale", small.ScalaSecs, small.PythonSecs)
	}
	big := rows[1]
	smallGain := (small.PythonSecs - small.ScalaSecs) / small.PythonSecs
	bigGain := (big.PythonSecs - big.ScalaSecs) / big.PythonSecs
	if bigGain >= smallGain {
		t.Fatalf("Scala gain should shrink with scale: %v -> %v", smallGain, bigGain)
	}
}

func TestFig12aShape(t *testing.T) {
	rows, err := Fig12a(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	byTask := map[string]LoCRow{}
	for _, r := range rows {
		byTask[r.Task] = r
		if r.ScriptLoC <= 0 || r.WorkflowLoC <= 0 {
			t.Fatalf("degenerate LoC for %s: %+v", r.Task, r)
		}
	}
	// DICE is by far the largest implementation.
	for _, other := range []string{"wef", "gotta", "kge"} {
		if byTask["dice"].ScriptLoC <= byTask[other].ScriptLoC {
			t.Fatalf("dice script (%d) should exceed %s (%d)", byTask["dice"].ScriptLoC, other, byTask[other].ScriptLoC)
		}
	}
	// Workflow is smaller except for KGE.
	for _, task := range []string{"dice", "wef", "gotta"} {
		if byTask[task].WorkflowLoC >= byTask[task].ScriptLoC {
			t.Fatalf("%s workflow LoC should be below script", task)
		}
	}
	if byTask["kge"].WorkflowLoC <= byTask["kge"].ScriptLoC {
		t.Fatal("kge workflow LoC should exceed script (paper shape)")
	}
}

func TestFig12bShape(t *testing.T) {
	res, err := Fig12b(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 6 {
		t.Fatalf("points = %d", len(res.Points))
	}
	if res.Points[4].Seconds >= res.Points[0].Seconds {
		t.Fatal("5 operators should beat 1")
	}
	if res.ScriptRef <= 0 {
		t.Fatal("script reference missing")
	}
	if res.ScriptRef >= res.Points[0].Seconds {
		t.Fatal("script should beat the single-operator workflow on KGE")
	}
}

func TestFig13Shapes(t *testing.T) {
	dicePts, err := Fig13aDICE(quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range dicePts {
		if !p.OutputsAgree {
			t.Fatalf("DICE paradigms disagree at %d", p.Size)
		}
		if p.Workflow >= p.Script {
			t.Fatalf("DICE workflow (%v) should beat script (%v) at %d", p.Workflow, p.Script, p.Size)
		}
	}
	kgePts, err := Fig13cKGE(quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range kgePts {
		if p.Script >= p.Workflow {
			t.Fatalf("KGE script (%v) should beat workflow (%v) at %d", p.Script, p.Workflow, p.Size)
		}
	}
}

func TestFig13bAndDShapes(t *testing.T) {
	wefPts, err := Fig13bWEF(quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range wefPts {
		gap := (p.Script - p.Workflow) / p.Script
		if gap < 0 || gap > 0.1 {
			t.Fatalf("WEF paradigms should be near-equal, gap %v at %d", gap, p.Size)
		}
	}
	gottaPts, err := Fig13dGOTTA(quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range gottaPts {
		if p.Script/p.Workflow < 1.5 {
			t.Fatalf("GOTTA workflow should win by 1.5x+, got %v at %d", p.Script/p.Workflow, p.Size)
		}
	}
}

func TestFig14Shapes(t *testing.T) {
	for name, fn := range map[string]func(Config) ([]WorkerPoint, error){
		"dice": Fig14aDICE, "gotta": Fig14bGOTTA, "kge": Fig14cKGE,
	} {
		pts, err := fn(quick)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(pts) != 3 {
			t.Fatalf("%s: points = %d", name, len(pts))
		}
		if pts[2].Script >= pts[0].Script {
			t.Fatalf("%s: script should speed up with workers", name)
		}
		if pts[2].Workflow >= pts[0].Workflow {
			t.Fatalf("%s: workflow should speed up with workers", name)
		}
	}
}
