package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/relation"
)

// repro drives the CLI in-process, exactly as main does.
func repro(args ...string) (stdout, stderr string, exit int) {
	var out, errOut bytes.Buffer
	exit = run(args, &out, &errOut)
	return out.String(), errOut.String(), exit
}

// mustRepro is repro for invocations that have to succeed.
func mustRepro(t *testing.T, args ...string) string {
	t.Helper()
	stdout, stderr, exit := repro(args...)
	if exit != 0 {
		t.Fatalf("repro %s: exit %d\n%s", strings.Join(args, " "), exit, stderr)
	}
	return stdout
}

type runOutput struct {
	Spec    core.RunSpec `json:"spec"`
	Results []struct {
		Paradigm     string `json:"paradigm"`
		OutputDigest string `json:"output_digest"`
	} `json:"results"`
}

func decodeRun(t *testing.T, stdout string) runOutput {
	t.Helper()
	var out runOutput
	if err := json.Unmarshal([]byte(stdout), &out); err != nil {
		t.Fatalf("run -json is not {spec, results}: %v\n%s", err, stdout)
	}
	return out
}

func TestRunReportsTheSpecDigest(t *testing.T) {
	results, err := core.RunSpec{Task: "dice", Size: 10}.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("%016x", relation.Digest(results[0].Output))

	flags := mustRepro(t, "run", "dice", "-size", "10", "-json")
	out := decodeRun(t, flags)
	if len(out.Results) != 2 || out.Results[0].Paradigm != "script" || out.Results[1].Paradigm != "workflow" {
		t.Fatalf("want a script and a workflow result, got %+v", out.Results)
	}
	for _, r := range out.Results {
		if r.OutputDigest != want {
			t.Errorf("%s digest %s, RunSpec.Run computes %s", r.Paradigm, r.OutputDigest, want)
		}
	}
	if out.Spec.Task != "dice" || out.Spec.Size != 10 {
		t.Errorf("echoed spec %+v", out.Spec)
	}

	if whole := mustRepro(t, "run", "-spec", `{"task":"dice","size":10}`, "-json"); whole != flags {
		t.Errorf("-spec output differs from the flag spelling:\n%s\n%s", whole, flags)
	}
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(`{"task":"dice","size":10,"paradigm":"workflow"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if out := decodeRun(t, mustRepro(t, "run", "-spec", "@"+path, "-json")); len(out.Results) != 1 || out.Results[0].OutputDigest != want {
		t.Errorf("-spec @file: %+v, want one result with digest %s", out.Results, want)
	}
}

func TestExperimentJSONEnvelope(t *testing.T) {
	var doc struct {
		Experiment  string           `json:"experiment"`
		Description string           `json:"description"`
		Result      []map[string]any `json:"result"`
	}
	dec := json.NewDecoder(strings.NewReader(mustRepro(t, "experiment", "fig12a", "-json")))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Experiment != "fig12a" || doc.Description != catalog[1].desc || len(doc.Result) != 4 {
		t.Fatalf("envelope %+v", doc)
	}
	table := mustRepro(t, "experiment", "fig12a", "-charts=false")
	if !strings.HasPrefix(table, "== "+catalog[1].desc+"\n") || !strings.Contains(table, "script LoC") {
		t.Fatalf("table output:\n%s", table)
	}
}

func TestValidate(t *testing.T) {
	if out := mustRepro(t, "validate"); !strings.Contains(out, "plan validation: 4 tasks, 0 diagnostics, 0 rewrites applied") {
		t.Fatalf("validate output:\n%s", out)
	}
	var reports []struct {
		Task    string `json:"task"`
		Applied int    `json:"applied"`
	}
	if err := json.Unmarshal([]byte(mustRepro(t, "validate", "-optimize", "-json")), &reports); err != nil {
		t.Fatal(err)
	}
	for _, r := range reports {
		if r.Task == "dice" && r.Applied >= 1 {
			return
		}
	}
	t.Fatalf("validate -optimize applied no rewrite on dice: %+v", reports)
}

func TestExplain(t *testing.T) {
	if out := mustRepro(t, "explain", "dice", "-scale", "20"); !strings.Contains(out, "makespan") {
		t.Fatalf("explain output has no makespan line:\n%s", out)
	}
	// The profile echoes the size it ran at: the default over -scale.
	var profile struct {
		Size int `json:"size"`
	}
	full, _ := core.TaskDefaultSize("dice")
	if err := json.Unmarshal([]byte(mustRepro(t, "explain", "dice", "-scale", "20", "-json")), &profile); err != nil || profile.Size != full/20 {
		t.Fatalf("explain -json size = %d (%v), want %d", profile.Size, err, full/20)
	}
}

func TestTraceWritesBothParadigms(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	out := mustRepro(t, "trace", "dice", "-scale", "20", "-o", path)
	if !strings.HasPrefix(out, "wrote "+path) {
		t.Errorf("trace output:\n%s", out)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Args struct {
				Name string `json:"name"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatal(err)
	}
	var script, workflow bool
	for _, e := range trace.TraceEvents {
		if e.Name == "process_name" {
			script = script || strings.HasPrefix(e.Args.Name, "script:")
			workflow = workflow || strings.HasPrefix(e.Args.Name, "workflow:")
		}
	}
	if !script || !workflow {
		t.Fatalf("trace processes: script=%v workflow=%v", script, workflow)
	}
}

// TestList pins `repro list` to the catalog: every experiment once, in
// table order, described, then the registered tasks with their sizes.
// bench-check against a copy of the repository's newest trajectory
// point: exit 2 with nothing to compare against, clean as recorded,
// exit 1 naming the rows once the copy says a micro used to make ten
// objects fewer and a macro used to simulate a different time.
func TestBenchCheckGatesTheCounts(t *testing.T) {
	dir := t.TempDir()
	if _, stderr, exit := repro("bench-check", "-bench-dir", dir); exit != 2 || !strings.Contains(stderr, "no BENCH_*.json baseline") {
		t.Fatalf("empty directory: exit %d, stderr %q", exit, stderr)
	}
	_, baseline, err := bench.LatestBaseline("../..")
	if err != nil {
		t.Fatal(err)
	}
	// Object counts are the Go runtime's as much as ours, and under the
	// race detector sync.Pool drops items at random.
	bi, ok := debug.ReadBuildInfo()
	switch {
	case testing.Short():
		t.Skip("two harness runs in -short mode")
	case baseline.GoVersion != runtime.Version():
		t.Skipf("trajectory point recorded by %s, this is %s", baseline.GoVersion, runtime.Version())
	case ok && slices.ContainsFunc(bi.Settings, func(s debug.BuildSetting) bool { return s.Key == "-race" && s.Value == "true" }):
		t.Skip("object counts are not repeatable under -race")
	}
	write := func() {
		data, err := json.Marshal(baseline)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "BENCH_1.json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	write()
	if stdout, stderr, exit := repro("bench-check", "-bench-dir", dir); exit != 0 || !strings.Contains(stdout, fmt.Sprintf("%d counts compared", len(baseline.Micro)+len(baseline.Macro))) {
		t.Fatalf("untouched baseline: exit %d\n%s%s", exit, stdout, stderr)
	}

	micro, macro := &baseline.Micro[5], &baseline.Macro[len(baseline.Macro)-1]
	if micro.Name != "lower_dice200" || macro.Task != "gotta" || macro.Experiment != "opt-on" {
		t.Fatalf("baseline rows are not where this test expects them: %+v %+v", micro, macro)
	}
	micro.AllocsPerOp -= 10
	macro.SimSeconds *= 1.001
	write()
	stdout, _, exit := repro("bench-check", "-bench-dir", dir)
	if exit != 1 || !strings.Contains(stdout, "2 moved") {
		t.Fatalf("mutated baseline: exit %d\n%s", exit, stdout)
	}
	for _, row := range []string{"MOVED micro lower_dice200", "MOVED macro gotta/opt-on/16"} {
		if !strings.Contains(stdout, row) {
			t.Errorf("bench-check does not name %q:\n%s", row, stdout)
		}
	}
}

func TestList(t *testing.T) {
	lines := strings.Split(strings.TrimRight(mustRepro(t, "list"), "\n"), "\n")
	tasks := core.TaskNames()
	if want := len(catalog) + 2 + len(tasks); len(lines) != want {
		t.Fatalf("list printed %d lines, want %d:\n%s", len(lines), want, strings.Join(lines, "\n"))
	}
	seen := map[string]bool{}
	for i, e := range catalog {
		if e.desc == "" || seen[e.id] {
			t.Errorf("catalog entry %d (%q): empty description or duplicate ID", i, e.id)
		}
		seen[e.id] = true
		if f := strings.Fields(lines[i]); f[0] != e.id || !strings.HasSuffix(lines[i], " "+e.desc) {
			t.Errorf("line %d = %q, want %s and its description", i, lines[i], e.id)
		}
	}
	for i, name := range tasks {
		size, _ := core.TaskDefaultSize(name)
		if got, want := lines[len(catalog)+2+i], fmt.Sprintf("%-8s size=%d", name, size); got != want {
			t.Errorf("task line %q, want %q", got, want)
		}
	}
}

func TestHelpIsTheCommandTable(t *testing.T) {
	help := mustRepro(t, "help")
	for _, c := range commands {
		if strings.Count(help, "  "+c.usage()+" ") != 1 {
			t.Errorf("help does not list %q exactly once", c.usage())
		}
	}
	if dashH := mustRepro(t, "-h"); dashH != help {
		t.Errorf("repro -h differs from repro help")
	}
	if readme, err := os.ReadFile("../../README.md"); err != nil || !strings.Contains(string(readme), help) {
		t.Errorf("README.md's usage block is not the `repro help` output (read error: %v); paste it again", err)
	}
	// A subcommand's -h is its own flags and nobody else's.
	_, usage, exit := repro("explain", "-h")
	if exit != 0 || !strings.Contains(usage, "usage: repro explain <task> [flags]") ||
		!strings.Contains(usage, "-trace-wall") || strings.Contains(usage, "-optimize") || strings.Contains(usage, "-serve-tasks") {
		t.Errorf("explain -h (exit %d):\n%s", exit, usage)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args    string
		stderr  string // must appear in the diagnostic
		oneLine bool   // the diagnostic is that line and nothing else
	}{
		{"frobnicate", `unknown subcommand "frobnicate" (want run, serve, explain, validate, experiment, trace, bench, bench-check, list, help)`, true},
		{"run", "repro run: missing task name", true},
		{"run -size 10", "repro run: missing task name", true},
		{"explain", "repro explain: missing <task>", true},
		{"trace -metrics", "repro trace: missing <task>", true},
		{"bench", "repro bench: missing <file>", true},
		{"experiment fig99", `unknown experiment "fig99"`, true},
		{"validate dice", `unexpected argument "dice"`, false},
		{"run dice kge", `unexpected argument "kge"`, false},
		// -spec is the whole spec: nothing may be layered over it.
		{`run dice -spec {"task":"dice"}`, "-spec is the whole spec; dice cannot be given with it", true},
		{`run -spec {"task":"dice"} -size 5`, "-spec is the whole spec; -size cannot be given with it", true},
		// Accepted and silently ignored before there was one FlagSet
		// per subcommand; each names the flag now.
		{"explain dice -optimize", "flag provided but not defined: -optimize", false},
		{"run dice -trace x", "flag provided but not defined: -trace", false},
		{"serve -charts=false", "flag provided but not defined: -charts", false},
		{"validate -workers 8", "flag provided but not defined: -workers", false},
		{"validate -faults 4", "flag provided but not defined: -faults", false},
		{"list -json", "flag provided but not defined: -json", false},
		// The removed flag spellings of the modes.
		{"-run dice", "use `repro run`", true},
		{"-bench-check", "use `repro bench-check`", true},
		{"-scale 10", "`repro experiment all -scale 10`", true},
	} {
		stdout, stderr, exit := repro(strings.Fields(tc.args)...)
		if exit != 2 || stdout != "" || !strings.Contains(stderr, tc.stderr) {
			t.Errorf("repro %s: exit %d, stdout %q, stderr %q; want exit 2 naming %q", tc.args, exit, stdout, stderr, tc.stderr)
		}
		if tc.oneLine && strings.Count(stderr, "\n") != 1 {
			t.Errorf("repro %s: want a one-line diagnostic, got\n%s", tc.args, stderr)
		}
		if !tc.oneLine && !strings.Contains(stderr, "usage: repro "+strings.Fields(tc.args)[0]) {
			t.Errorf("repro %s: flag error without that subcommand's usage:\n%s", tc.args, stderr)
		}
	}
	if _, stderr, exit := repro("run", "no-such-task", "-size", "1"); exit != 1 || !strings.Contains(stderr, "unknown task") {
		t.Errorf("run of an unknown task: exit %d, stderr %q; want exit 1 (a run error, not a usage error)", exit, stderr)
	}
}

// startServe runs the serve subcommand with args (an address is
// prepended) on a free loopback port until ctx is cancelled, the way
// cmdServe does until a signal arrives. It returns once /healthz
// answers, with the service's base URL and the channel its exit code
// arrives on.
func startServe(t *testing.T, ctx context.Context, stdout *bytes.Buffer, args ...string) (string, <-chan int) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	done := make(chan int, 1)
	go func() {
		done <- serveUntil(ctx, append([]string{addr}, args...), stdout, &stderr)
	}()
	for up := false; !up; {
		select {
		case exit := <-done:
			t.Fatalf("serve exited %d before it was cancelled:\n%s", exit, stderr.String())
		case <-time.After(5 * time.Millisecond):
		}
		if resp, err := http.Get("http://" + addr + "/healthz"); err == nil {
			up = resp.StatusCode == http.StatusOK
			resp.Body.Close()
		}
	}
	return "http://" + addr, done
}

// TestServeStopsOnCancel starts the service the way cmdServe does and
// stops it the way a signal would: by cancelling the context.
func TestServeStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stdout bytes.Buffer
	_, done := startServe(t, ctx, &stdout, "-serve-tasks", "dice:workflow:10", "-tenant", "t")
	cancel()
	select {
	case exit := <-done:
		if exit != 0 {
			t.Fatalf("serve exited %d", exit)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not return after its context was cancelled")
	}
	if out := stdout.String(); !strings.Contains(out, "submitted r0001 (dice, paradigm workflow, tenant t)") || !strings.Contains(out, "shutting down") {
		t.Errorf("serve output:\n%s", out)
	}
}

// TestServeNodesBudgetIsRunCeiling holds serve -nodes to the worker
// ceiling run -nodes applies: one node is the paper cluster's 32 vCPUs,
// so the 16-worker run that run -nodes 1 -workers 16 executes is
// admitted, not rejected as job_too_large.
func TestServeNodesBudgetIsRunCeiling(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stdout bytes.Buffer
	base, done := startServe(t, ctx, &stdout, "-nodes", "1")
	defer func() { cancel(); <-done }()

	resp, err := http.Get(base + "/v1/tenants")
	if err != nil {
		t.Fatal(err)
	}
	var tenants struct {
		BudgetVCPUs int `json:"budget_vcpus"`
	}
	err = json.NewDecoder(resp.Body).Decode(&tenants)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if tenants.BudgetVCPUs != 32 {
		t.Errorf("serve -nodes 1 budget = %d vCPUs, want 32", tenants.BudgetVCPUs)
	}

	body := `{"task":"dice","paradigm":"workflow","size":10,"workers":16}`
	resp, err = http.Post(base+"/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	reply, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Errorf("POST %s to serve -nodes 1: %d %s, want 202", body, resp.StatusCode, reply)
	}
}
