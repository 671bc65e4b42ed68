// Package experiments implements the paper's evaluation section: one
// entry per table and figure, each regenerating the same rows or
// series the paper reports, next to the paper's published values for
// comparison. Experiment IDs follow DESIGN.md (E1..E10).
package experiments

import (
	"repro/internal/core"
	"repro/internal/tasks/dice"
	"repro/internal/tasks/gotta"
	"repro/internal/tasks/kge"
	"repro/internal/tasks/wef"
)

// Config scales the experiment suite. The zero value runs at the
// paper's sizes; tests shrink it.
type Config struct {
	core.RunConfig
	// Scale divides dataset sizes (1 = paper size). Values > 1 shrink
	// every workload proportionally for quick runs.
	Scale int
	// Seed is the base dataset seed.
	Seed uint64
}

func (c Config) normalize() Config {
	if c.Scale < 1 {
		c.Scale = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

func (c Config) scaled(n int) int {
	v := n / c.Scale
	if v < 1 {
		v = 1
	}
	return v
}

// ---------------------------------------------------------------------------
// E1 — Table I: KGE operator-language comparison.

// Table1Row is one scale of the Table I comparison.
type Table1Row struct {
	Products     int
	PythonSecs   float64
	ScalaSecs    float64
	PaperPython  float64
	PaperScala   float64
	OutputsAgree bool
}

// Table1 reproduces Table I: the three-Python-operator KGE workflow
// against the variant whose join is nine Scala operators, at 6.8k and
// 68k product pairs.
func Table1(cfg Config) ([]Table1Row, error) {
	cfg = cfg.normalize()
	paper := map[int][2]float64{
		6800:  {126.28, 98.67},
		68000: {1170.57, 1159.82},
	}
	var out []Table1Row
	for _, products := range []int{6800, 68000} {
		n := cfg.scaled(products)
		py, err := kge.New(kge.Params{Products: n, Seed: cfg.Seed, Variant: kge.Variant{Ops: 3}})
		if err != nil {
			return nil, err
		}
		sc, err := kge.New(kge.Params{Products: n, Seed: cfg.Seed, Variant: kge.Variant{Ops: 3, ScalaJoin: true}})
		if err != nil {
			return nil, err
		}
		rp, err := py.Run(core.Workflow, cfg.RunConfig)
		if err != nil {
			return nil, err
		}
		rs, err := sc.Run(core.Workflow, cfg.RunConfig)
		if err != nil {
			return nil, err
		}
		out = append(out, Table1Row{
			Products:     n,
			PythonSecs:   rp.SimSeconds,
			ScalaSecs:    rs.SimSeconds,
			PaperPython:  paper[products][0],
			PaperScala:   paper[products][1],
			OutputsAgree: rp.Output.Equal(rs.Output),
		})
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// E2 — Figure 12a: lines of code per task per paradigm.

// LoCRow is one task's implementation sizes.
type LoCRow struct {
	Task          string
	ScriptLoC     int
	WorkflowLoC   int
	PaperScript   int
	PaperWorkflow int
}

// Fig12a reproduces Figure 12a: implementation size of the four tasks
// under both paradigms.
func Fig12a(cfg Config) ([]LoCRow, error) {
	cfg = cfg.normalize()
	paper := map[string][2]int{
		"dice":  {377, 215},
		"wef":   {68, 62},
		"gotta": {120, 105},
		"kge":   {128, 134},
	}
	tasks, err := smallTasks(cfg)
	if err != nil {
		return nil, err
	}
	var out []LoCRow
	for _, t := range tasks {
		s, w, err := core.RunBoth(t, cfg.RunConfig)
		if err != nil {
			return nil, err
		}
		out = append(out, LoCRow{
			Task:          t.Name(),
			ScriptLoC:     s.LinesOfCode,
			WorkflowLoC:   w.LinesOfCode,
			PaperScript:   paper[t.Name()][0],
			PaperWorkflow: paper[t.Name()][1],
		})
	}
	return out, nil
}

// smallTasks builds the four tasks at modest sizes (LoC does not
// depend on data size).
func smallTasks(cfg Config) ([]core.Task, error) {
	d, err := dice.New(dice.Params{Pairs: 10, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	w, err := wef.New(wef.Params{Tweets: 40, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	g, err := gotta.New(gotta.Params{Paragraphs: 2, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	k, err := kge.New(kge.Params{Products: 200, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	return []core.Task{d, w, g, k}, nil
}

// ---------------------------------------------------------------------------
// E3 — Figure 12b: KGE execution time versus operator count.

// ModularityPoint is one operator-count measurement.
type ModularityPoint struct {
	Ops     int
	Seconds float64
	Paper   float64
}

// Fig12bResult is the modularity sweep plus the script reference line.
type Fig12bResult struct {
	Points      []ModularityPoint
	ScriptRef   float64
	PaperScript float64
}

// Fig12b reproduces Figure 12b: the KGE workflow at 6.8k products,
// decomposed into 1..6 operators, with the script time for reference.
func Fig12b(cfg Config) (*Fig12bResult, error) {
	cfg = cfg.normalize()
	paper := map[int]float64{1: 138.97, 5: 114.05, 6: 115.14}
	n := cfg.scaled(6800)
	res := &Fig12bResult{PaperScript: 90.69}
	for ops := 1; ops <= 6; ops++ {
		task, err := kge.New(kge.Params{Products: n, Seed: cfg.Seed, Variant: kge.Variant{Ops: ops}})
		if err != nil {
			return nil, err
		}
		r, err := task.Run(core.Workflow, cfg.RunConfig)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, ModularityPoint{Ops: ops, Seconds: r.SimSeconds, Paper: paper[ops]})
	}
	ref, err := kge.New(kge.Params{Products: n, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	sr, err := ref.Run(core.Script, cfg.RunConfig)
	if err != nil {
		return nil, err
	}
	res.ScriptRef = sr.SimSeconds
	return res, nil
}

// ---------------------------------------------------------------------------
// E4..E7 — Figure 13: execution time versus dataset size.

// ScalePoint is one dataset size's times under both paradigms.
type ScalePoint struct {
	Size          int
	Script        float64
	Workflow      float64
	PaperScript   float64
	PaperWorkflow float64
	OutputsAgree  bool
}

// runScale measures a constructor over sizes.
func runScale(cfg Config, sizes []int, paper map[int][2]float64, mk func(size int) (core.Task, error)) ([]ScalePoint, error) {
	var out []ScalePoint
	for _, size := range sizes {
		n := cfg.scaled(size)
		task, err := mk(n)
		if err != nil {
			return nil, err
		}
		s, w, err := core.RunBoth(task, cfg.RunConfig)
		if err != nil {
			return nil, err
		}
		p := paper[size]
		out = append(out, ScalePoint{
			Size: n, Script: s.SimSeconds, Workflow: w.SimSeconds,
			PaperScript: p[0], PaperWorkflow: p[1],
			OutputsAgree: s.Output.Equal(w.Output),
		})
	}
	return out, nil
}

// Fig13aDICE reproduces Figure 13a: DICE from 10 to 200 file pairs.
func Fig13aDICE(cfg Config) ([]ScalePoint, error) {
	cfg = cfg.normalize()
	paper := map[int][2]float64{10: {14.71, 10.73}, 200: {239.54, 107.83}}
	return runScale(cfg, []int{10, 50, 100, 200}, paper, func(n int) (core.Task, error) {
		return dice.New(dice.Params{Pairs: n, Seed: cfg.Seed})
	})
}

// Fig13bWEF reproduces Figure 13b: WEF training on 200-400 tweets.
func Fig13bWEF(cfg Config) ([]ScalePoint, error) {
	cfg = cfg.normalize()
	paper := map[int][2]float64{
		200: {1285.82, 1264.93}, 300: {1922.86, 1896.01}, 400: {2587.94, 2525.96},
	}
	return runScale(cfg, []int{200, 300, 400}, paper, func(n int) (core.Task, error) {
		return wef.New(wef.Params{Tweets: n, Seed: cfg.Seed})
	})
}

// Fig13cKGE reproduces Figure 13c: KGE at 6.8k and 68k products.
func Fig13cKGE(cfg Config) ([]ScalePoint, error) {
	cfg = cfg.normalize()
	paper := map[int][2]float64{6800: {90.69, 135.85}, 68000: {975.46, 1350.50}}
	return runScale(cfg, []int{6800, 68000}, paper, func(n int) (core.Task, error) {
		return kge.New(kge.Params{Products: n, Seed: cfg.Seed})
	})
}

// Fig13dGOTTA reproduces Figure 13d: GOTTA at 1, 4 and 16 paragraphs.
func Fig13dGOTTA(cfg Config) ([]ScalePoint, error) {
	cfg = cfg.normalize()
	paper := map[int][2]float64{1: {163.22, 64.14}, 4: {463.96, 149.45}, 16: {1389.93, 460.13}}
	// Paragraph counts are small already; do not scale them down.
	return runScale(Config{RunConfig: cfg.RunConfig, Scale: 1, Seed: cfg.Seed}, []int{1, 4, 16}, paper, func(n int) (core.Task, error) {
		return gotta.New(gotta.Params{Paragraphs: n, Seed: cfg.Seed})
	})
}

// ---------------------------------------------------------------------------
// E8..E10 — Figure 14: execution time versus worker count.

// WorkerPoint is one worker count's times under both paradigms,
// together with the paper's "number of parallel processes" metric.
type WorkerPoint struct {
	Workers       int
	Script        float64
	Workflow      float64
	PaperScript   float64
	PaperWorkflow float64
	// ScriptProcs is the peak number of concurrently running Ray
	// tasks; WorkflowProcs the per-operator worker count.
	ScriptProcs   int
	WorkflowProcs int
}

// runWorkers measures one task across worker counts.
func runWorkers(cfg Config, task core.Task, paper map[int][2]float64) ([]WorkerPoint, error) {
	var out []WorkerPoint
	for _, workers := range []int{1, 2, 4} {
		rc := cfg.RunConfig
		rc.Workers = workers
		s, w, err := core.RunBoth(task, rc)
		if err != nil {
			return nil, err
		}
		p := paper[workers]
		out = append(out, WorkerPoint{
			Workers: workers, Script: s.SimSeconds, Workflow: w.SimSeconds,
			PaperScript: p[0], PaperWorkflow: p[1],
			ScriptProcs: s.ParallelProcs, WorkflowProcs: w.ParallelProcs,
		})
	}
	return out, nil
}

// Fig14aDICE reproduces Figure 14a: DICE at 200 pairs with 1, 2 and 4
// workers.
func Fig14aDICE(cfg Config) ([]WorkerPoint, error) {
	cfg = cfg.normalize()
	task, err := dice.New(dice.Params{Pairs: cfg.scaled(200), Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	return runWorkers(cfg, task, map[int][2]float64{
		1: {239.54, 107.82}, 2: {148.04, 87.13}, 4: {85.65, 57.21},
	})
}

// Fig14bGOTTA reproduces Figure 14b: GOTTA at 4 paragraphs with 1, 2
// and 4 workers.
func Fig14bGOTTA(cfg Config) ([]WorkerPoint, error) {
	cfg = cfg.normalize()
	task, err := gotta.New(gotta.Params{Paragraphs: 4, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	return runWorkers(cfg, task, map[int][2]float64{
		1: {463.96, 149.45}, 2: {234.68, 104.16}, 4: {139.66, 83.37},
	})
}

// Fig14cKGE reproduces Figure 14c: KGE at 68k products with 1, 2 and 4
// workers.
func Fig14cKGE(cfg Config) ([]WorkerPoint, error) {
	cfg = cfg.normalize()
	task, err := kge.New(kge.Params{Products: cfg.scaled(68000), Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	return runWorkers(cfg, task, map[int][2]float64{
		1: {975.46, 1350.50}, 2: {459.46, 618.39}, 4: {273.89, 383.58},
	})
}
