// Command repro runs the reproduction's experiment suite — every table
// and figure of the paper's evaluation — and the long-running
// multi-tenant workflow service in front of the same engines.
//
// Usage (subcommand modes; each accepts the shared flags below):
//
//	repro run dice            # one task via the unified RunSpec
//	                          # (-paradigm, -size, -workers, -spec JSON)
//	repro serve :8080         # multi-tenant service + observability:
//	                          # POST /v1/runs, fair-share queueing,
//	                          # /metrics, SSE progress, traces, pprof
//	repro explain dice        # EXPLAIN-ANALYZE profile of a workflow
//	repro validate            # static DAG validation; exit 1 on findings
//	repro validate -optimize  # + cost-based rewrite report (OPT0xx) per plan
//	repro run dice -optimize  # run with the plan optimizer; output bytes
//	                          # are bit-identical, only the schedule changes
//	repro bench-check         # compare fresh bench vs newest BENCH_*.json
//	repro experiment fig13a   # one experiment (repro experiment all)
//
// Flag spellings of the modes (-run, -serve, -explain, -validate,
// -bench-check, -experiment) remain accepted but are deprecated.
//
//	repro                     # run everything at paper scale
//	repro -scale 10           # shrink datasets 10x for a quick pass
//	repro -list               # list experiment IDs
//	repro -bench-json F.json  # wall-clock benchmark harness, JSON to F.json
//	repro -trace out.json     # run one task under both paradigms, write
//	                          # a Chrome trace (chrome://tracing, Perfetto)
//	repro -trace-task kge     # which task -trace/-metrics instrument
//	repro -metrics            # print the telemetry summary + metrics dump
//	repro -faults 4           # arm deterministic fault injection (4 kills
//	                          # per 100 sim-seconds) for every run
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/report"
	"repro/internal/telemetry"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "experiment ID to run (see -list)")
		runTask    = flag.String("run", "", "run one task through the unified RunSpec (with -paradigm, -size, -workers, -tenant; or -spec for raw JSON) and print its results")
		specJSON   = flag.String("spec", "", "raw core.RunSpec JSON (or @file) for the run mode; individual flags override nothing once set")
		paradigm   = flag.String("paradigm", "both", "paradigm for the run mode: script, workflow or both")
		size       = flag.Int("size", 0, "input size for the run mode; 0 uses the task's paper-scale default")
		tenant     = flag.String("tenant", "", "tenant attribution for the run mode and -serve submissions")
		queueCap   = flag.Int("queue-cap", 0, "per-tenant pending-queue bound for -serve admission control; 0 uses the service default (64)")
		scale      = flag.Int("scale", 1, "dataset shrink factor (1 = paper scale)")
		seed       = flag.Uint64("seed", 1, "dataset seed")
		list       = flag.Bool("list", false, "list experiment IDs and exit")
		charts     = flag.Bool("charts", true, "render ASCII charts for figure experiments")
		jsonOut    = flag.Bool("json", false, "emit results as JSON instead of tables")
		benchJSON  = flag.String("bench-json", "", "run the wall-clock benchmark harness and write its JSON report to this file")
		traceOut   = flag.String("trace", "", "run -trace-task under both paradigms and write a Chrome trace-event JSON file")
		metrics    = flag.Bool("metrics", false, "with -trace (or alone), print the telemetry summary and metrics dump")
		traceTask  = flag.String("trace-task", "dice", "task to instrument for -trace/-metrics ("+strings.Join(experiments.TraceTasks(), ", ")+")")
		traceWall  = flag.Bool("trace-wall", false, "include non-deterministic wall-clock spans in the trace and metrics")
		faultRate  = flag.Float64("faults", 0, "fault rate in kills per 100 simulated seconds; arms deterministic fault injection (and workflow checkpointing) for every run")
		lineageOn  = flag.Bool("lineage", false, "with -trace/-metrics: arm the versioned artifact store and run each paradigm twice, so cache hits and commits appear in the trace")
		validate   = flag.Bool("validate", false, "statically validate every task's workflow DAG (cycles, arity, schemas, partitioning, checkpoints) without executing; exit 1 if any diagnostic fires")
		serveAddr  = flag.String("serve", "", "start the live observability server on this address (e.g. :8080): /metrics, /v1/runs, /v1/runs/{id}/events SSE, /v1/runs/{id}/trace, /debug/pprof")
		serveTasks = flag.String("serve-tasks", "", "comma-separated tasks to launch as -serve starts; each is name[:paradigm[:size]] (e.g. dice:workflow:50)")
		explainOf  = flag.String("explain", "", "run a task's workflow and print an EXPLAIN-ANALYZE profile (aligned tree; -json for the raw profile; -lineage for cache-hit annotation; -trace-wall adds wall columns)")
		benchCheck = flag.Bool("bench-check", false, "run the wall-clock harness and compare against the latest BENCH_*.json baseline in -bench-dir; exit 1 on regression, 2 when no comparable baseline exists")
		benchDir   = flag.String("bench-dir", ".", "directory searched for BENCH_*.json baselines by -bench-check")
		optimize   = flag.Bool("optimize", false, "run the cost-based plan optimizer over every workflow plan (run, validate and experiment modes); outputs stay bit-identical, only the schedule changes")
		workers    = flag.Int("workers", 1, "per-operator worker count for run, -explain and -serve-tasks runs")
		nodes      = flag.Int("nodes", 0, "simulated cluster nodes for the run and serve modes; >1 enables the sharded tier (8 vCPUs per node), lifts the 32-worker ceiling and sizes the serve budget")
	)
	defaultUsage := flag.Usage
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: repro [run|serve|explain|validate|bench-check|experiment] [args] [flags]\n")
		fmt.Fprintf(flag.CommandLine.Output(), "The bare-flag mode spellings (-run, -serve, -explain, -validate, -bench-check,\n-experiment) are deprecated; prefer the subcommand forms above.\n\n")
		defaultUsage()
	}
	args, err := translateMode(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		flag.Usage()
		os.Exit(2)
	}
	if err := flag.CommandLine.Parse(args); err != nil {
		os.Exit(2)
	}

	mkCfg := func() (experiments.Config, error) {
		cfg := experiments.Config{Scale: *scale, Seed: *seed}
		if *faultRate > 0 {
			// CheckpointEvery stays zero: the workflow engine applies
			// its default epoch length once injection is armed.
			rc, err := core.NewRunConfig(core.WithFaults(faults.Plan{
				Seed:         *seed,
				Rate:         *faultRate,
				NodeFraction: 0.25,
			}))
			if err != nil {
				return cfg, err
			}
			cfg.RunConfig = rc
		}
		// Set on the (possibly zero-valued) RunConfig directly: the
		// experiment drivers normalize their derived configs themselves.
		cfg.RunConfig.Optimize = *optimize
		return cfg, nil
	}

	if *benchJSON != "" {
		if err := runBench(*benchJSON, *seed); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *benchCheck {
		os.Exit(runBenchCheck(*benchDir, *seed, *jsonOut))
	}

	if *runTask != "" || *specJSON != "" {
		if err := runSpecMode(*runTask, *specJSON, specFlags{
			Paradigm: *paradigm, Size: *size, Seed: *seed, Workers: *workers, Nodes: *nodes,
			Tenant: *tenant, Scale: *scale, FaultRate: *faultRate, Lineage: *lineageOn,
			Optimize: *optimize,
		}, *jsonOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *explainOf != "" {
		if err := runExplain(*explainOf, explainConfig{
			Scale: *scale, Seed: *seed, Workers: *workers,
			JSON: *jsonOut, Wall: *traceWall, Lineage: *lineageOn,
		}); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *serveAddr != "" {
		if err := runServe(*serveAddr, *serveTasks, *workers, *seed, *queueCap, *nodes, *tenant); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *validate {
		cfg, err := mkCfg()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		ok, err := runValidate(cfg, *jsonOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	if *traceOut != "" || *metrics {
		cfg, err := mkCfg()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := runTrace(*traceTask, *traceOut, *metrics, *traceWall, *lineageOn, cfg); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *list {
		for _, id := range experiments.IDs {
			desc, _ := experiments.Describe(id)
			fmt.Printf("%-8s %s\n", id, desc)
		}
		fmt.Println("\ntasks (for -trace-task; size is the paper-scale default):")
		for _, name := range core.TaskNames() {
			size, _ := core.TaskDefaultSize(name)
			fmt.Printf("%-8s size=%d\n", name, size)
		}
		return
	}

	cfg, err := mkCfg()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	ids := experiments.IDs
	if *experiment != "all" {
		if _, err := experiments.Describe(*experiment); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		ids = []string{*experiment}
	}
	for _, id := range ids {
		if err := run(id, cfg, *charts && !*jsonOut, *jsonOut); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Println()
	}
}

// translateMode rewrites a leading subcommand (run, serve, explain,
// validate, bench-check, experiment) into the equivalent legacy flag
// spelling, so both forms share one flag set and one code path. Args
// that already start with a flag pass through untouched.
func translateMode(args []string) ([]string, error) {
	if len(args) == 0 || strings.HasPrefix(args[0], "-") {
		return args, nil
	}
	mode, rest := args[0], args[1:]
	// takeArg pops a leading positional value (the task name, address
	// or experiment ID) when one is present.
	takeArg := func() (string, bool) {
		if len(rest) > 0 && !strings.HasPrefix(rest[0], "-") {
			v := rest[0]
			rest = rest[1:]
			return v, true
		}
		return "", false
	}
	switch mode {
	case "run":
		task, ok := takeArg()
		if !ok {
			return nil, fmt.Errorf("repro run: missing task name (e.g. repro run dice)")
		}
		return append([]string{"-run", task}, rest...), nil
	case "serve":
		addr, ok := takeArg()
		if !ok {
			addr = ":8080"
		}
		return append([]string{"-serve", addr}, rest...), nil
	case "explain":
		task, ok := takeArg()
		if !ok {
			return nil, fmt.Errorf("repro explain: missing task name (e.g. repro explain dice)")
		}
		return append([]string{"-explain", task}, rest...), nil
	case "validate":
		return append([]string{"-validate"}, rest...), nil
	case "bench-check":
		return append([]string{"-bench-check"}, rest...), nil
	case "experiment":
		id, ok := takeArg()
		if !ok {
			id = "all"
		}
		return append([]string{"-experiment", id}, rest...), nil
	default:
		return nil, fmt.Errorf("repro: unknown mode %q (want run, serve, explain, validate, bench-check or experiment)", mode)
	}
}

// runTrace runs one task under both paradigms with telemetry attached,
// optionally writing a Chrome trace and printing the metrics report.
func runTrace(task, traceOut string, metrics, wall, lineageOn bool, cfg experiments.Config) error {
	traceFn := experiments.Trace
	if lineageOn {
		traceFn = experiments.TraceLineage
	}
	rec, err := traceFn(task, cfg)
	if err != nil {
		return err
	}
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		if err := rec.WriteChromeTrace(f, telemetry.ExportOptions{IncludeWall: wall}); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d spans; load in chrome://tracing or Perfetto)\n", traceOut, len(rec.Spans()))
	}
	rec.WriteSummary(os.Stdout)
	report.OperatorTable(os.Stdout, rec)
	if metrics {
		return rec.WriteMetrics(os.Stdout, wall)
	}
	return nil
}

// runValidate statically checks every task's workflow DAG and prints
// per-task operator/edge counts plus any diagnostics. It returns false
// when a plan has findings.
func runValidate(cfg experiments.Config, jsonOut bool) (bool, error) {
	reports, err := experiments.ValidatePlans(cfg)
	if err != nil {
		return false, err
	}
	total := 0
	for _, r := range reports {
		total += len(r.Diags)
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reports); err != nil {
			return false, err
		}
		return total == 0, nil
	}
	out := [][]string{{"task", "workers", "operators", "edges", "diagnostics", "rewrites"}}
	rewrites := 0
	for _, r := range reports {
		rewrites += r.Applied
		out = append(out, []string{
			r.Task, strconv.Itoa(r.Workers), strconv.Itoa(r.Operators),
			strconv.Itoa(r.Edges), strconv.Itoa(len(r.Diags)), strconv.Itoa(r.Applied),
		})
	}
	report.Table(os.Stdout, out)
	for _, r := range reports {
		for _, d := range r.Diags {
			fmt.Printf("%s: %s\n", r.Task, d)
		}
		// Optimizer decisions are explanations, not findings; they never
		// affect the exit code.
		for _, d := range r.Rewrites {
			fmt.Printf("%s: %s\n", r.Task, d)
		}
	}
	fmt.Printf("plan validation: %d tasks, %d diagnostics, %d rewrites applied\n", len(reports), total, rewrites)
	return total == 0, nil
}

// runBench executes the wall-clock harness and writes its report.
func runBench(path string, seed uint64) error {
	rep, err := bench.Run(seed)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d micro, %d macro benchmarks)\n", path, len(rep.Micro), len(rep.Macro))
	return nil
}

func run(id string, cfg experiments.Config, charts, jsonOut bool) error {
	desc, err := experiments.Describe(id)
	if err != nil {
		return err
	}
	if !jsonOut {
		fmt.Println("==", desc)
	}
	w := os.Stdout
	emit := func(v any) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(map[string]any{"experiment": id, "description": desc, "result": v})
	}
	switch id {
	case "table1":
		rows, err := experiments.Table1(cfg)
		if err != nil {
			return err
		}
		if jsonOut {
			return emit(rows)
		}
		out := [][]string{{"products", "python (s)", "scala (s)", "paper python", "paper scala", "outputs agree"}}
		for _, r := range rows {
			out = append(out, []string{
				strconv.Itoa(r.Products), report.Secs(r.PythonSecs), report.Secs(r.ScalaSecs),
				report.Secs(r.PaperPython), report.Secs(r.PaperScala), fmt.Sprint(r.OutputsAgree),
			})
		}
		report.Table(w, out)
	case "fig12a":
		rows, err := experiments.Fig12a(cfg)
		if err != nil {
			return err
		}
		if jsonOut {
			return emit(rows)
		}
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
	case "fig12b":
		res, err := experiments.Fig12b(cfg)
		if err != nil {
			return err
		}
		if jsonOut {
			return emit(res)
		}
		out := [][]string{{"operators", "workflow (s)", "paper"}}
		var pts []report.Point
		for _, p := range res.Points {
			paper := "-"
			if p.Paper > 0 {
				paper = report.Secs(p.Paper)
			}
			out = append(out, []string{strconv.Itoa(p.Ops), report.Secs(p.Seconds), paper})
			pts = append(pts, report.Point{X: float64(p.Ops), Y: p.Seconds})
		}
		out = append(out, []string{"script", report.Secs(res.ScriptRef), report.Secs(res.PaperScript)})
		report.Table(w, out)
		if charts {
			report.Chart(w, "KGE time vs operator count", []report.Series{{Name: "workflow", Points: pts}}, 48, 10)
		}
	case "fig13a", "fig13b", "fig13c", "fig13d":
		fn := map[string]func(experiments.Config) ([]experiments.ScalePoint, error){
			"fig13a": experiments.Fig13aDICE,
			"fig13b": experiments.Fig13bWEF,
			"fig13c": experiments.Fig13cKGE,
			"fig13d": experiments.Fig13dGOTTA,
		}[id]
		pts, err := fn(cfg)
		if err != nil {
			return err
		}
		if jsonOut {
			return emit(pts)
		}
		out := [][]string{{"size", "script (s)", "workflow (s)", "paper script", "paper workflow", "outputs agree"}}
		var s1, s2 []report.Point
		for _, p := range pts {
			ps, pw := "-", "-"
			if p.PaperScript > 0 {
				ps = report.Secs(p.PaperScript)
			}
			if p.PaperWorkflow > 0 {
				pw = report.Secs(p.PaperWorkflow)
			}
			out = append(out, []string{
				strconv.Itoa(p.Size), report.Secs(p.Script), report.Secs(p.Workflow),
				ps, pw, fmt.Sprint(p.OutputsAgree),
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
	case "fig14a", "fig14b", "fig14c":
		fn := map[string]func(experiments.Config) ([]experiments.WorkerPoint, error){
			"fig14a": experiments.Fig14aDICE,
			"fig14b": experiments.Fig14bGOTTA,
			"fig14c": experiments.Fig14cKGE,
		}[id]
		pts, err := fn(cfg)
		if err != nil {
			return err
		}
		if jsonOut {
			return emit(pts)
		}
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
	case "recovery":
		pts, err := experiments.RecoveryOverhead(cfg)
		if err != nil {
			return err
		}
		if jsonOut {
			return emit(pts)
		}
		report.RecoveryCurve(w, pts, charts)
	case "iterate":
		pts, err := experiments.Iterate(cfg)
		if err != nil {
			return err
		}
		if jsonOut {
			return emit(pts)
		}
		report.IterationTable(w, pts, charts)
	case "serving":
		pts, err := experiments.Serving(cfg)
		if err != nil {
			return err
		}
		if jsonOut {
			return emit(pts)
		}
		report.ServingCurve(w, pts, charts)
	case "scale":
		rows, err := experiments.Scale(cfg)
		if err != nil {
			return err
		}
		if jsonOut {
			return emit(rows)
		}
		report.ScaleCurve(w, rows, charts)
	case "ablation-torch", "ablation-store", "ablation-serde", "ablation-batch":
		fn := map[string]func(experiments.Config) ([]experiments.AblationRow, error){
			"ablation-torch": experiments.AblationTorchPin,
			"ablation-store": experiments.AblationObjectStore,
			"ablation-serde": experiments.AblationSerde,
			"ablation-batch": experiments.AblationBatching,
		}[id]
		rows, err := fn(cfg)
		if err != nil {
			return err
		}
		if jsonOut {
			return emit(rows)
		}
		out := [][]string{{"configuration", "time (s)", "note"}}
		for _, r := range rows {
			out = append(out, []string{r.Config, report.Secs(r.Seconds), r.Note})
		}
		report.Table(w, out)
	case "autotune":
		out, err := experiments.AutoTuneDICE(cfg)
		if err != nil {
			return err
		}
		if jsonOut {
			return emit(out)
		}
		rows := [][]string{{"operator", "workers"}}
		for _, r := range out.Rows {
			rows = append(rows, []string{r.Operator, strconv.Itoa(r.Workers)})
		}
		report.Table(w, rows)
		fmt.Fprintf(w, "baseline (1 worker/op): %s s   tuned: %s s   cores used: %d\n",
			report.Secs(out.BaselineSeconds), report.Secs(out.TunedSeconds), out.CoresUsed)
	case "optimize":
		rows, err := experiments.OptimizerSweep(cfg)
		if err != nil {
			return err
		}
		if jsonOut {
			return emit(rows)
		}
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
	case "ext-spreadsheet":
		pts, err := experiments.ExtSpreadsheetKGE(cfg)
		if err != nil {
			return err
		}
		if jsonOut {
			return emit(pts)
		}
		rows := [][]string{{"size", "script (s)", "workflow (s)", "spreadsheet (s)", "outputs agree"}}
		var s1, s2, s3 []report.Point
		for _, p := range pts {
			rows = append(rows, []string{
				strconv.Itoa(p.Size), report.Secs(p.Script), report.Secs(p.Workflow),
				report.Secs(p.Spreadsheet), fmt.Sprint(p.AllAgree),
			})
			s1 = append(s1, report.Point{X: float64(p.Size), Y: p.Script})
			s2 = append(s2, report.Point{X: float64(p.Size), Y: p.Workflow})
			s3 = append(s3, report.Point{X: float64(p.Size), Y: p.Spreadsheet})
		}
		report.Table(w, rows)
		if charts {
			report.Chart(w, "KGE under three paradigms", []report.Series{
				{Name: "script", Points: s1}, {Name: "workflow", Points: s2}, {Name: "spreadsheet", Points: s3},
			}, 48, 10)
		}
	default:
		return fmt.Errorf("repro: unhandled experiment %q", id)
	}
	return nil
}
