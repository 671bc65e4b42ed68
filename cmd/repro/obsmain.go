package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/report"
	"repro/internal/service"
	"repro/internal/telemetry"
)

// explainConfig carries the CLI knobs into runExplain.
type explainConfig struct {
	Scale   int
	Seed    uint64
	Workers int
	JSON    bool
	Wall    bool
	Lineage bool
}

// runExplain builds and prints the EXPLAIN-ANALYZE profile of one
// task's workflow. Default output is the deterministic aligned tree;
// -json emits the raw profile object.
func runExplain(task string, cfg explainConfig) error {
	size, err := core.TaskDefaultSize(task)
	if err != nil {
		return err
	}
	if cfg.Scale > 1 {
		size /= cfg.Scale
		if size < 1 {
			size = 1
		}
	}
	p, err := obs.BuildProfile(task, obs.ProfileOptions{
		Size:    size,
		Seed:    cfg.Seed,
		Workers: cfg.Workers,
		Lineage: cfg.Lineage,
		Wall:    cfg.Wall,
	})
	if err != nil {
		return err
	}
	if cfg.JSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(p)
	}
	report.Explain(os.Stdout, p)
	return nil
}

// runBenchCheck runs the harness and compares against the newest
// BENCH_*.json baseline. Exit codes: 0 clean, 1 regression detected,
// 2 no comparable baseline (missing or env mismatch) or harness error.
func runBenchCheck(dir string, seed uint64, jsonOut bool) int {
	path, baseline, err := bench.LatestBaseline(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench-check: %v\n", err)
		return 2
	}
	fmt.Printf("bench-check: baseline %s, running fresh harness...\n", path)
	fresh, err := bench.Run(seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench-check: %v\n", err)
		return 2
	}
	cmp := bench.Compare(baseline, fresh)
	cmp.BaselinePath = path
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(cmp); err != nil {
			return 2
		}
	} else {
		printCompare(cmp)
	}
	switch {
	case len(cmp.EnvMismatch) > 0:
		return 2
	case cmp.Regressions > 0:
		return 1
	default:
		return 0
	}
}

func printCompare(cmp *bench.CompareReport) {
	if len(cmp.EnvMismatch) > 0 {
		fmt.Printf("bench-check: REFUSED — baseline not comparable with this machine configuration:\n")
		for _, m := range cmp.EnvMismatch {
			fmt.Printf("  %s\n", m)
		}
		return
	}
	for _, f := range cmp.Findings {
		switch {
		case f.Regressed:
			fmt.Printf("  REGRESSION %-32s %-5s %12.1f -> %12.1f  (%.2fx, threshold %.0f%%)\n",
				f.Name, f.Kind, f.Baseline, f.Fresh, f.Ratio, 100*f.Threshold)
		case f.Improved:
			fmt.Printf("  improved   %-32s %-5s %12.1f -> %12.1f  (%.2fx)\n",
				f.Name, f.Kind, f.Baseline, f.Fresh, f.Ratio)
		}
	}
	for _, m := range cmp.Missing {
		fmt.Printf("  note: %s\n", m)
	}
	fmt.Printf("bench-check: %d benchmarks compared, %d regressions\n", len(cmp.Findings), cmp.Regressions)
}

// parseServeTask parses one -serve-tasks element into a RunSpec:
// name[:paradigm[:size]].
func parseServeTask(spec string, workers int, seed uint64, tenant string) (core.RunSpec, error) {
	parts := strings.Split(spec, ":")
	req := core.RunSpec{Task: parts[0], Seed: seed, Workers: workers, Tenant: tenant}
	if len(parts) > 1 && parts[1] != "" {
		req.Paradigm = parts[1]
	}
	if len(parts) > 2 {
		size, err := strconv.Atoi(parts[2])
		if err != nil {
			return req, fmt.Errorf("repro: bad size in -serve-tasks element %q: %w", spec, err)
		}
		req.Size = size
	}
	if len(parts) > 3 {
		return req, fmt.Errorf("repro: bad -serve-tasks element %q (want name[:paradigm[:size]])", spec)
	}
	return req, nil
}

// runServe starts the multi-tenant workflow service (fair-share
// queueing behind POST /v1/runs plus the observability endpoints),
// optionally submitting an initial batch of runs, and serves until
// SIGINT/SIGTERM, then shuts down gracefully — HTTP first, then the
// scheduler (draining queued runs).
func runServe(addr, tasks string, workers int, seed uint64, queueCap, nodes int, tenant string) error {
	srv := obs.NewServerWith(obs.NewRegistry(), telemetry.New(), service.Config{QueueCap: queueCap, Nodes: nodes})
	if tasks != "" {
		for _, spec := range strings.Split(tasks, ",") {
			spec = strings.TrimSpace(spec)
			if spec == "" {
				continue
			}
			req, err := parseServeTask(spec, workers, seed, tenant)
			if err != nil {
				return err
			}
			run, err := srv.Launch(req)
			if err != nil {
				return err
			}
			fmt.Printf("submitted %s (%s, paradigm %s, tenant %s)\n", run.ID, run.Task, run.Paradigm, run.Tenant)
		}
	}
	httpSrv := &http.Server{Addr: addr, Handler: srv}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	fmt.Printf("workflow service on %s — POST /v1/runs, /v1/tenants, /metrics, /v1/runs/{id}/events, /v1/runs/{id}/trace, /debug/pprof\n", addr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case s := <-sig:
		fmt.Printf("%v: shutting down\n", s)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		return err
	}
	srv.Close()
	return nil
}

// specFlags carries the run mode's CLI knobs into the RunSpec.
type specFlags struct {
	Paradigm  string
	Size      int
	Seed      uint64
	Workers   int
	Nodes     int
	Tenant    string
	Scale     int
	FaultRate float64
	Lineage   bool
	Optimize  bool
}

// runSpecMode executes one task through the unified RunSpec — the same
// decode target POST /v1/runs uses — and prints per-paradigm results.
// specJSON, when set, is the raw spec (JSON literal or @file); task
// and the individual flags populate it otherwise.
func runSpecMode(task, specJSON string, f specFlags, jsonOut bool) error {
	var spec core.RunSpec
	if specJSON != "" {
		raw := []byte(specJSON)
		if strings.HasPrefix(specJSON, "@") {
			b, err := os.ReadFile(specJSON[1:])
			if err != nil {
				return err
			}
			raw = b
		}
		if err := json.Unmarshal(raw, &spec); err != nil {
			return fmt.Errorf("repro: bad -spec JSON: %w", err)
		}
	} else {
		spec = core.RunSpec{
			Task:      task,
			Paradigm:  f.Paradigm,
			Size:      f.Size,
			Seed:      f.Seed,
			Workers:   f.Workers,
			Nodes:     f.Nodes,
			Tenant:    f.Tenant,
			FaultRate: f.FaultRate,
			Lineage:   f.Lineage,
			Optimize:  f.Optimize,
		}
	}
	spec, err := spec.Normalize()
	if err != nil {
		return err
	}
	if spec.Size <= 0 && f.Scale > 1 {
		size, err := core.TaskDefaultSize(spec.Task)
		if err != nil {
			return err
		}
		spec.Size = size / f.Scale
		if spec.Size < 1 {
			spec.Size = 1
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
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(map[string]any{"spec": spec, "results": rows})
	}
	out := [][]string{{"paradigm", "sim s", "procs", "operators", "output digest"}}
	for _, r := range rows {
		out = append(out, []string{
			r.Paradigm, report.Secs(r.SimSeconds), strconv.Itoa(r.Procs),
			strconv.Itoa(r.Operators), r.OutputDigest,
		})
	}
	report.Table(os.Stdout, out)
	return nil
}
