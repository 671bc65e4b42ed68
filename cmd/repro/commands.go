package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/report"
	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/telemetry"
)

// cmdRun executes one task through the unified RunSpec — the decode
// target POST /v1/runs uses. The spec comes from the task argument and
// the flags bound to its fields, or whole from -spec; never from both.
func cmdRun(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("run", stderr)
	var spec core.RunSpec
	fs.StringVar(&spec.Paradigm, "paradigm", "both", "script, workflow or both")
	fs.IntVar(&spec.Size, "size", 0, "input size; 0 uses the task's paper-scale default, divided by -scale")
	fs.Uint64Var(&spec.Seed, "seed", 1, "dataset seed")
	fs.IntVar(&spec.Workers, "workers", 1, "per-operator worker count")
	fs.IntVar(&spec.Nodes, "nodes", 0, "simulated cluster nodes; >1 enables the sharded tier (8 vCPUs per node) and lifts the 32-worker ceiling")
	fs.StringVar(&spec.Tenant, "tenant", "", "tenant attribution")
	fs.Float64Var(&spec.FaultRate, "faults", 0, "fault rate in kills per 100 simulated seconds; arms deterministic fault injection (and workflow checkpointing)")
	fs.BoolVar(&spec.Lineage, "lineage", false, "arm a fresh versioned artifact store for the run")
	fs.BoolVar(&spec.Optimize, "optimize", false, "run the cost-based plan optimizer over the workflow plan; output bytes are bit-identical, only the schedule changes")
	specJSON := fs.String("spec", "", "the whole core.RunSpec as JSON (or @file), as POST /v1/runs takes it; excludes the task argument and every flag but -scale and -json")
	scale := fs.Int("scale", 1, "shrink factor applied to the task's default size when the spec names none")
	jsonOut := fs.Bool("json", false, "emit {spec, results} as JSON instead of a table")
	task, exit, ok := parse(fs, args)
	if !ok {
		return exit
	}
	switch {
	case *specJSON != "":
		clash := task
		fs.Visit(func(f *flag.Flag) {
			if f.Name != "spec" && f.Name != "scale" && f.Name != "json" {
				clash = "-" + f.Name
			}
		})
		if clash != "" {
			fmt.Fprintf(stderr, "repro run: -spec is the whole spec; %s cannot be given with it\n", clash)
			return 2
		}
		raw := []byte(*specJSON)
		if path, isFile := strings.CutPrefix(*specJSON, "@"); isFile {
			var err error
			if raw, err = os.ReadFile(path); err != nil {
				return exitCode(stderr, err)
			}
		}
		spec = core.RunSpec{}
		if err := json.Unmarshal(raw, &spec); err != nil {
			return exitCode(stderr, fmt.Errorf("repro: bad -spec JSON: %w", err))
		}
	case task == "":
		fmt.Fprintln(stderr, "repro run: missing task name (e.g. repro run dice)")
		return 2
	default:
		spec.Task = task
	}
	return exitCode(stderr, runSpec(spec, *scale, *jsonOut, stdout))
}

// runSpec runs the spec and prints per-paradigm results.
func runSpec(spec core.RunSpec, scale int, jsonOut bool, stdout io.Writer) error {
	spec, err := spec.Normalize()
	if err != nil {
		return err
	}
	// At -scale 1 an unset size stays unset, so the echoed spec omits it.
	if spec.Size <= 0 && scale > 1 {
		if spec.Size, err = scaledSize(spec.Task, scale); err != nil {
			return err
		}
	}
	results, err := spec.Run()
	if err != nil {
		return err
	}
	type row struct {
		Paradigm     string  `json:"paradigm"`
		SimSeconds   float64 `json:"sim_seconds"`
		Procs        int     `json:"parallel_procs"`
		Operators    int     `json:"operators"`
		ShuffleBytes int64   `json:"shuffle_bytes,omitempty"`
		SpillBytes   int64   `json:"spill_bytes,omitempty"`
		OutputDigest string  `json:"output_digest"`
	}
	var rows []row
	for _, res := range results {
		rows = append(rows, row{
			Paradigm:     res.Paradigm.String(),
			SimSeconds:   res.SimSeconds,
			Procs:        res.ParallelProcs,
			Operators:    res.Operators,
			ShuffleBytes: res.Trace.ShuffleBytes,
			SpillBytes:   res.Trace.SpillBytes,
			OutputDigest: fmt.Sprintf("%016x", relation.Digest(res.Output)),
		})
	}
	if jsonOut {
		return writeJSON(stdout, map[string]any{"spec": spec, "results": rows})
	}
	out := [][]string{{"paradigm", "sim s", "procs", "operators", "output digest"}}
	for _, r := range rows {
		out = append(out, []string{
			r.Paradigm, report.Secs(r.SimSeconds), strconv.Itoa(r.Procs),
			strconv.Itoa(r.Operators), r.OutputDigest,
		})
	}
	report.Table(stdout, out)
	return nil
}

func cmdServe(args []string, stdout, stderr io.Writer) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return serveUntil(ctx, args, stdout, stderr)
}

// serveUntil is cmdServe serving until ctx is cancelled.
func serveUntil(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("serve", stderr)
	var cfg service.Config
	fs.IntVar(&cfg.QueueCap, "queue-cap", 0, "per-tenant pending-queue bound for admission control; 0 uses the service default (64)")
	nodes := fs.Int("nodes", 0, "simulated cluster nodes sizing the vCPU budget as run -nodes sizes the worker ceiling: the paper cluster's 32 vCPUs up to 1, 8 per node beyond")
	tasks := fs.String("serve-tasks", "", "comma-separated runs to submit at start-up, each name[:paradigm[:size]] (e.g. dice:workflow:50)")
	var first core.RunSpec // what every -serve-tasks run starts from
	fs.IntVar(&first.Workers, "workers", 1, "per-operator worker count of the -serve-tasks runs")
	fs.Uint64Var(&first.Seed, "seed", 1, "dataset seed of the -serve-tasks runs")
	fs.StringVar(&first.Tenant, "tenant", "", "tenant the -serve-tasks runs are submitted as")
	addr, exit, ok := parse(fs, args)
	if !ok {
		return exit
	}
	if addr == "" {
		addr = ":8080"
	}
	cfg.BudgetVCPUs = shard.Topology{Nodes: *nodes}.TotalVCPUs()
	return exitCode(stderr, serve(ctx, addr, cfg, *tasks, first, stdout))
}

// serve starts the multi-tenant workflow service (fair-share queueing
// behind POST /v1/runs plus the observability endpoints), submits the
// initial batch of runs, and serves until ctx is cancelled; then it
// shuts down gracefully — HTTP first, then the scheduler (draining
// queued runs).
func serve(ctx context.Context, addr string, cfg service.Config, tasks string, first core.RunSpec, stdout io.Writer) error {
	srv := obs.NewServerWith(obs.NewRegistry(), telemetry.New(), cfg)
	for _, elem := range strings.Split(tasks, ",") {
		elem = strings.TrimSpace(elem)
		if elem == "" {
			continue
		}
		req, err := parseServeTask(elem, first)
		if err != nil {
			return err
		}
		run, err := srv.Launch(req)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "submitted %s (%s, paradigm %s, tenant %s)\n", run.ID, run.Task, run.Paradigm, run.Tenant)
	}
	// No WriteTimeout: /v1/runs/{id}/events is a long-lived SSE stream.
	httpSrv := &http.Server{Addr: addr, Handler: srv, ReadHeaderTimeout: 10 * time.Second}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(stdout, "workflow service on %s — POST /v1/runs, /v1/tenants, /metrics, /v1/runs/{id}/events, /v1/runs/{id}/trace, /debug/pprof\n", addr)

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
		fmt.Fprintln(stdout, "shutting down")
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return err
	}
	srv.Close()
	return nil
}

// parseServeTask fills one -serve-tasks element, name[:paradigm[:size]],
// into req.
func parseServeTask(elem string, req core.RunSpec) (core.RunSpec, error) {
	var size string
	req.Task, req.Paradigm, _ = strings.Cut(elem, ":")
	req.Paradigm, size, _ = strings.Cut(req.Paradigm, ":")
	if size != "" {
		var err error
		if req.Size, err = strconv.Atoi(size); err != nil {
			return req, fmt.Errorf("repro: bad -serve-tasks element %q (want name[:paradigm[:size]]): %w", elem, err)
		}
	}
	return req, nil
}

// cmdExplain prints the EXPLAIN-ANALYZE profile of one task's workflow:
// the deterministic aligned tree, or the raw profile object with -json.
func cmdExplain(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("explain", stderr)
	var spec core.RunSpec
	fs.Uint64Var(&spec.Seed, "seed", 1, "dataset seed")
	fs.IntVar(&spec.Workers, "workers", 1, "per-operator worker count")
	fs.BoolVar(&spec.Lineage, "lineage", false, "arm the versioned artifact store and profile the second, warm run: cache hits per operator")
	wall := fs.Bool("trace-wall", false, "add non-deterministic wall-clock columns")
	scale := fs.Int("scale", 1, "shrink factor applied to the task's paper-scale size")
	jsonOut := fs.Bool("json", false, "emit the raw profile as JSON instead of the aligned tree")
	task, exit, ok := parse(fs, args)
	if !ok {
		return exit
	}
	spec.Task = task
	var err error
	if spec.Size, err = scaledSize(task, *scale); err != nil {
		return exitCode(stderr, err)
	}
	p, err := obs.BuildProfile(spec, *wall)
	if err != nil {
		return exitCode(stderr, err)
	}
	if *jsonOut {
		return exitCode(stderr, writeJSON(stdout, p))
	}
	report.Explain(stdout, p)
	return 0
}

// cmdValidate statically checks every task's workflow DAG and prints
// per-task operator/edge counts plus any diagnostics. Exit 1 when a
// plan has findings, 2 when the harness itself fails.
func cmdValidate(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("validate", stderr)
	var cfg experiments.Config
	suiteFlags(fs, &cfg)
	jsonOut := fs.Bool("json", false, "emit the per-task reports as JSON instead of a table")
	if _, exit, ok := parse(fs, args); !ok {
		return exit
	}
	reports, err := experiments.ValidatePlans(cfg)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	findings, rewrites := 0, 0
	for _, r := range reports {
		findings += len(r.Diags)
		rewrites += r.Applied
	}
	if *jsonOut {
		if err := writeJSON(stdout, reports); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	} else {
		out := [][]string{{"task", "workers", "operators", "edges", "diagnostics", "rewrites"}}
		for _, r := range reports {
			out = append(out, []string{
				r.Task, strconv.Itoa(r.Workers), strconv.Itoa(r.Operators),
				strconv.Itoa(r.Edges), strconv.Itoa(len(r.Diags)), strconv.Itoa(r.Applied),
			})
		}
		report.Table(stdout, out)
		for _, r := range reports {
			for _, d := range r.Diags {
				fmt.Fprintf(stdout, "%s: %s\n", r.Task, d)
			}
			// Optimizer decisions are explanations, not findings; they never
			// affect the exit code.
			for _, d := range r.Rewrites {
				fmt.Fprintf(stdout, "%s: %s\n", r.Task, d)
			}
		}
		fmt.Fprintf(stdout, "plan validation: %d tasks, %d diagnostics, %d rewrites applied\n", len(reports), findings, rewrites)
	}
	if findings > 0 {
		return 1
	}
	return 0
}

// cmdTrace runs one task under both paradigms with telemetry attached
// and prints the summary and per-operator table; -o writes the Chrome
// trace, -metrics adds the metrics dump.
func cmdTrace(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("trace", stderr)
	var cfg experiments.Config
	suiteFlags(fs, &cfg)
	faultRate := fs.Float64("faults", 0, faultsUsage)
	out := fs.String("o", "", "write a Chrome trace-event JSON file (chrome://tracing, Perfetto)")
	metrics := fs.Bool("metrics", false, "print the metrics dump after the summary")
	wall := fs.Bool("trace-wall", false, "include non-deterministic wall-clock spans in the trace and metrics")
	lineageOn := fs.Bool("lineage", false, "arm the versioned artifact store and run each paradigm twice, so cache hits and commits appear in the trace")
	task, exit, ok := parse(fs, args)
	if !ok {
		return exit
	}
	armFaults(&cfg, *faultRate)
	traceFn := experiments.Trace
	if *lineageOn {
		traceFn = experiments.TraceLineage
	}
	rec, err := traceFn(task, cfg)
	if err != nil {
		return exitCode(stderr, err)
	}
	if *out != "" {
		var buf bytes.Buffer
		if err := rec.WriteChromeTrace(&buf, telemetry.ExportOptions{IncludeWall: *wall}); err != nil {
			return exitCode(stderr, err)
		}
		if err := os.WriteFile(*out, buf.Bytes(), 0o666); err != nil {
			return exitCode(stderr, err)
		}
		fmt.Fprintf(stdout, "wrote %s (%d spans; load in chrome://tracing or Perfetto)\n", *out, rec.Len())
	}
	rec.WriteSummary(stdout)
	report.OperatorTable(stdout, rec)
	if *metrics {
		return exitCode(stderr, rec.WriteMetrics(stdout, *wall))
	}
	return 0
}

// cmdBench executes the wall-clock harness and writes its report.
func cmdBench(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("bench", stderr)
	seed := fs.Uint64("seed", 1, "dataset seed")
	path, exit, ok := parse(fs, args)
	if !ok {
		return exit
	}
	rep, err := bench.Run(*seed, 7, 60*time.Millisecond)
	if err != nil {
		return exitCode(stderr, err)
	}
	var buf bytes.Buffer
	if err := writeJSON(&buf, rep); err != nil {
		return exitCode(stderr, err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o666); err != nil {
		return exitCode(stderr, err)
	}
	fmt.Fprintf(stdout, "wrote %s (%d micro, %d macro benchmarks)\n", path, len(rep.Micro), len(rep.Macro))
	return 0
}

// cmdBenchCheck runs the harness and compares its counts — heap objects
// per op of every micro, simulated seconds of every macro — against the
// newest BENCH_*.json baseline. Counts need no timing window, so the
// harness runs one rep and 1 ms windows. Exit codes: 0 clean, 1 a count
// moved, 2 no baseline or harness error.
func cmdBenchCheck(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("bench-check", stderr)
	dir := fs.String("bench-dir", ".", "directory searched for BENCH_*.json baselines")
	seed := fs.Uint64("seed", 1, "dataset seed")
	jsonOut := fs.Bool("json", false, "emit the comparison report as JSON")
	if _, exit, ok := parse(fs, args); !ok {
		return exit
	}
	path, baseline, err := bench.LatestBaseline(*dir)
	if err != nil {
		fmt.Fprintf(stderr, "bench-check: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "bench-check: baseline %s, running fresh harness...\n", path)
	fresh, err := bench.Run(*seed, 1, time.Millisecond)
	if err != nil {
		fmt.Fprintf(stderr, "bench-check: %v\n", err)
		return 2
	}
	cmp := bench.Compare(baseline, fresh)
	cmp.BaselinePath = path
	if *jsonOut {
		if err := writeJSON(stdout, cmp); err != nil {
			return 2
		}
	} else {
		for _, f := range cmp.Findings {
			if f.Moved {
				fmt.Fprintf(stdout, "  MOVED %-5s %-32s %v -> %v\n", f.Kind, f.Name, f.Baseline, f.Fresh)
			}
		}
		for _, n := range cmp.Notes {
			fmt.Fprintf(stdout, "  note: %s\n", n)
		}
		fmt.Fprintf(stdout, "bench-check: %d counts compared (allocs_per_op of micros, sim_seconds of macros), %d moved\n", len(cmp.Findings), cmp.Moved)
	}
	if cmp.Moved > 0 {
		return 1
	}
	return 0
}
