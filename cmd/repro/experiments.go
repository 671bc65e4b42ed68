package main

import (
	"flag"
	"fmt"
	"io"
	"slices"
	"strconv"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/report"
)

// experiment is one table or figure of the evaluation.
type experiment struct {
	id, desc string
	run      func(cfg experiments.Config, w io.Writer, charts, jsonOut bool) error
}

// entry builds an experiment from its driver and its table renderer;
// the -json envelope is written here, once, for all of them.
func entry[T any](id, desc string, run func(experiments.Config) (T, error), render func(io.Writer, T, bool)) experiment {
	return experiment{id, desc, func(cfg experiments.Config, w io.Writer, charts, jsonOut bool) error {
		if !jsonOut {
			fmt.Fprintln(w, "==", desc)
		}
		v, err := run(cfg)
		if err != nil {
			return err
		}
		if jsonOut {
			return writeJSON(w, map[string]any{"experiment": id, "description": desc, "result": v})
		}
		render(w, v, charts)
		return nil
	}}
}

// catalog lists the experiments in run order; `repro experiment`,
// `experiment all` and `repro list` read nothing else. The ablations
// and everything after them are this reproduction's additions: they
// isolate the cost-model mechanisms behind each headline comparison.
var catalog = []experiment{
	entry("table1", "Table I — KGE with Python vs. Scala join operators", experiments.Table1, renderTable1),
	entry("fig12a", "Figure 12a — lines of code per task per paradigm", experiments.Fig12a, renderLoC),
	entry("fig12b", "Figure 12b — KGE time vs. number of workflow operators", experiments.Fig12b, renderOperatorCount),
	entry("fig13a", "Figure 13a — DICE time vs. dataset size", experiments.Fig13aDICE, renderSizes),
	entry("fig13b", "Figure 13b — WEF time vs. dataset size", experiments.Fig13bWEF, renderSizes),
	entry("fig13c", "Figure 13c — KGE time vs. dataset size", experiments.Fig13cKGE, renderSizes),
	entry("fig13d", "Figure 13d — GOTTA time vs. dataset size", experiments.Fig13dGOTTA, renderSizes),
	entry("fig14a", "Figure 14a — DICE time vs. workers", experiments.Fig14aDICE, renderWorkers),
	entry("fig14b", "Figure 14b — GOTTA time vs. workers", experiments.Fig14bGOTTA, renderWorkers),
	entry("fig14c", "Figure 14c — KGE time vs. workers", experiments.Fig14cKGE, renderWorkers),
	entry("recovery", "Recovery — DICE makespan vs. fault rate per paradigm (checkpointing armed)", experiments.RecoveryOverhead, report.RecoveryCurve),
	entry("iterate", "Iterate — edit-and-rerun makespan, cold vs. incremental, per paradigm (lineage store armed)", experiments.Iterate, report.IterationTable),
	entry("serving", "Serving — p50/p99 latency, goodput and per-tenant fairness vs offered load under the fair-share scheduler", experiments.Serving, report.ServingCurve),
	entry("scale", "Scale — DICE at 10-100x paper size across node counts: makespan, shuffle and spill, digests pinned to the single-cluster run", experiments.Scale, report.ScaleCurve),
	entry("ablation-torch", "Ablation — GOTTA script with and without Ray's 1-CPU torch pin", experiments.AblationTorchPin, renderAblation),
	entry("ablation-store", "Ablation — GOTTA script under swept object-store rates", experiments.AblationObjectStore, renderAblation),
	entry("ablation-serde", "Ablation — DICE workflow under swept serde throughput", experiments.AblationSerde, renderAblation),
	entry("ablation-batch", "Ablation — DICE workflow batching: auto-tuned vs whole-table", experiments.AblationBatching, renderAblation),
	entry("autotune", "Aspect #2 demo — engine-side worker allocation on DICE (16-core budget)", experiments.AutoTuneDICE, renderAutoTune),
	entry("optimize", "Optimizer — cost-based plan rewriting on/off per task and topology: makespans, applied rewrites, output digests asserted bit-equal", experiments.OptimizerSweep, renderOptimize),
}

// suiteFlags binds the experiments.Config knobs that experiment, trace
// and validate share.
func suiteFlags(fs *flag.FlagSet, cfg *experiments.Config) {
	fs.IntVar(&cfg.Scale, "scale", 1, "dataset shrink factor (1 = paper scale)")
	fs.Uint64Var(&cfg.Seed, "seed", 1, "dataset seed")
	fs.BoolVar(&cfg.Optimize, "optimize", false, "run the cost-based plan optimizer over every workflow plan; outputs stay bit-identical, only the schedule changes")
}

const faultsUsage = "fault rate in kills per 100 simulated seconds; arms deterministic fault injection (and workflow checkpointing) for every run"

// armFaults arms the suite's fault plan at rate, a quarter of the kills
// node-level. CheckpointEvery stays zero: the workflow engine applies
// its default epoch length once injection is armed.
func armFaults(cfg *experiments.Config, rate float64) {
	if rate > 0 {
		cfg.Faults = faults.Plan{Seed: cfg.Seed, Rate: rate, NodeFraction: 0.25}
	}
}

func cmdExperiment(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("experiment", stderr)
	var cfg experiments.Config
	suiteFlags(fs, &cfg)
	faultRate := fs.Float64("faults", 0, faultsUsage)
	charts := fs.Bool("charts", true, "render ASCII charts for figure experiments")
	jsonOut := fs.Bool("json", false, "emit {experiment, description, result} JSON documents instead of tables")
	id, exit, ok := parse(fs, args)
	if !ok {
		return exit
	}
	todo := catalog
	if id != "" && id != "all" {
		i := slices.IndexFunc(catalog, func(e experiment) bool { return e.id == id })
		if i < 0 {
			fmt.Fprintf(stderr, "repro experiment: unknown experiment %q (repro list shows the IDs)\n", id)
			return 2
		}
		todo = catalog[i : i+1]
	}
	armFaults(&cfg, *faultRate)
	for _, e := range todo {
		if err := e.run(cfg, stdout, *charts, *jsonOut); err != nil {
			return exitCode(stderr, fmt.Errorf("%s: %w", e.id, err))
		}
		fmt.Fprintln(stdout)
	}
	return 0
}

func cmdList(args []string, stdout, stderr io.Writer) int {
	if _, exit, ok := parse(newFlagSet("list", stderr), args); !ok {
		return exit
	}
	for _, e := range catalog {
		fmt.Fprintf(stdout, "%-8s %s\n", e.id, e.desc)
	}
	fmt.Fprintln(stdout, "\ntasks (for repro run, explain and trace; size is the paper-scale default):")
	for _, name := range core.TaskNames() {
		size, _ := core.TaskDefaultSize(name)
		fmt.Fprintf(stdout, "%-8s size=%d\n", name, size)
	}
	return 0
}

// paperSecs renders a published time, "-" where the paper reports none.
func paperSecs(v float64) string {
	if v > 0 {
		return report.Secs(v)
	}
	return "-"
}

func renderTable1(w io.Writer, rows []experiments.Table1Row, _ bool) {
	out := [][]string{{"products", "python (s)", "scala (s)", "paper python", "paper scala", "outputs agree"}}
	for _, r := range rows {
		out = append(out, []string{
			strconv.Itoa(r.Products), report.Secs(r.PythonSecs), report.Secs(r.ScalaSecs),
			report.Secs(r.PaperPython), report.Secs(r.PaperScala), fmt.Sprint(r.OutputsAgree),
		})
	}
	report.Table(w, out)
}

func renderLoC(w io.Writer, rows []experiments.LoCRow, charts bool) {
	out := [][]string{{"task", "script LoC", "workflow LoC", "paper script", "paper workflow"}}
	var labels []string
	var values []float64
	for _, r := range rows {
		out = append(out, []string{
			r.Task, strconv.Itoa(r.ScriptLoC), strconv.Itoa(r.WorkflowLoC),
			strconv.Itoa(r.PaperScript), strconv.Itoa(r.PaperWorkflow),
		})
		labels = append(labels, r.Task+"/script", r.Task+"/workflow")
		values = append(values, float64(r.ScriptLoC), float64(r.WorkflowLoC))
	}
	report.Table(w, out)
	if charts {
		report.Bar(w, "lines of code", labels, values, 40)
	}
}

func renderOperatorCount(w io.Writer, res *experiments.Fig12bResult, charts bool) {
	out := [][]string{{"operators", "workflow (s)", "paper"}}
	var pts []report.Point
	for _, p := range res.Points {
		out = append(out, []string{strconv.Itoa(p.Ops), report.Secs(p.Seconds), paperSecs(p.Paper)})
		pts = append(pts, report.Point{X: float64(p.Ops), Y: p.Seconds})
	}
	out = append(out, []string{"script", report.Secs(res.ScriptRef), report.Secs(res.PaperScript)})
	report.Table(w, out)
	if charts {
		report.Chart(w, "KGE time vs operator count", []report.Series{{Name: "workflow", Points: pts}}, 48, 10)
	}
}

// renderSizes is Figures 13a–d.
func renderSizes(w io.Writer, pts []experiments.ScalePoint, charts bool) {
	out := [][]string{{"size", "script (s)", "workflow (s)", "paper script", "paper workflow", "outputs agree"}}
	var s1, s2 []report.Point
	for _, p := range pts {
		out = append(out, []string{
			strconv.Itoa(p.Size), report.Secs(p.Script), report.Secs(p.Workflow),
			paperSecs(p.PaperScript), paperSecs(p.PaperWorkflow), fmt.Sprint(p.OutputsAgree),
		})
		s1 = append(s1, report.Point{X: float64(p.Size), Y: p.Script})
		s2 = append(s2, report.Point{X: float64(p.Size), Y: p.Workflow})
	}
	report.Table(w, out)
	if charts {
		report.Chart(w, "time vs dataset size", []report.Series{
			{Name: "script", Points: s1}, {Name: "workflow", Points: s2},
		}, 48, 10)
	}
}

// renderWorkers is Figures 14a–c.
func renderWorkers(w io.Writer, pts []experiments.WorkerPoint, charts bool) {
	out := [][]string{{"workers", "script (s)", "workflow (s)", "paper script", "paper workflow", "parallel procs (s/w)"}}
	var s1, s2 []report.Point
	for _, p := range pts {
		out = append(out, []string{
			strconv.Itoa(p.Workers), report.Secs(p.Script), report.Secs(p.Workflow),
			report.Secs(p.PaperScript), report.Secs(p.PaperWorkflow),
			fmt.Sprintf("%d/%d", p.ScriptProcs, p.WorkflowProcs),
		})
		s1 = append(s1, report.Point{X: float64(p.Workers), Y: p.Script})
		s2 = append(s2, report.Point{X: float64(p.Workers), Y: p.Workflow})
	}
	report.Table(w, out)
	if charts {
		report.Chart(w, "time vs workers", []report.Series{
			{Name: "script", Points: s1}, {Name: "workflow", Points: s2},
		}, 48, 10)
	}
}

func renderAblation(w io.Writer, rows []experiments.AblationRow, _ bool) {
	out := [][]string{{"configuration", "time (s)", "note"}}
	for _, r := range rows {
		out = append(out, []string{r.Config, report.Secs(r.Seconds), r.Note})
	}
	report.Table(w, out)
}

func renderAutoTune(w io.Writer, out *experiments.TuneOutcome, _ bool) {
	rows := [][]string{{"operator", "workers"}}
	for _, r := range out.Rows {
		rows = append(rows, []string{r.Operator, strconv.Itoa(r.Workers)})
	}
	report.Table(w, rows)
	fmt.Fprintf(w, "baseline (1 worker/op): %s s   tuned: %s s   cores used: %d\n",
		report.Secs(out.BaselineSeconds), report.Secs(out.TunedSeconds), out.CoresUsed)
}

func renderOptimize(w io.Writer, rows []experiments.OptimizeRow, _ bool) {
	out := [][]string{{"task", "nodes", "off (s)", "on (s)", "applied", "rejected", "digests equal"}}
	for _, r := range rows {
		out = append(out, []string{
			r.Task, strconv.Itoa(r.Nodes), report.Secs(r.Off), report.Secs(r.On),
			strconv.Itoa(r.Applied), strconv.Itoa(r.Rejected), fmt.Sprint(r.DigestsEqual),
		})
	}
	report.Table(w, out)
	for _, r := range rows {
		for _, d := range r.Rewrites {
			fmt.Fprintf(w, "%s/nodes=%d: %s\n", r.Task, r.Nodes, d)
		}
	}
}
