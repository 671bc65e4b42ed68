package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestPercentile(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		sorted []float64
		p      float64
		want   float64
	}{
		{nil, 50, 0},
		{[]float64{7}, 50, 7},
		{[]float64{7}, 90, 7},
		{[]float64{1, 2}, 50, 1},
		{[]float64{1, 2, 3}, 50, 2},
		{ten, 50, 5},
		{ten, 90, 9},
		{ten, 91, 10},
		{ten, 100, 10},
		{ten, 0.1, 1},
	} {
		if got := percentile(c.sorted, c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.sorted, c.p, got, c.want)
		}
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median of unsorted input = %v, want 5", got)
	}
}

func TestNames(t *testing.T) {
	for _, bad := range []string{"", "_x", ".x", "a b", "a/b", "a%", "é", strings.Repeat("a", 65)} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
	seen := make(map[string]bool)
	check := func(name string) {
		t.Helper()
		if !validName(name) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, d := range endToEnd {
		check(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, d := range perLayer {
		check(d.Name)
	}
	for _, w := range workloads {
		check(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
	}
}

// TestBenchmarkJSONMatchesCode holds BENCHMARK.json to the tables the
// benchmark reports from.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var file struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []jsonMetric                 `json:"end_to_end"`
		PerLayer  []jsonMetric                 `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := file.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the code %q: %q", i, got, w.Name, w.Why)
		}
	}
	same := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the code %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the code %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || bounded && *g.Bound != d.Bound {
				t.Errorf("%s %s: bound in BENCHMARK.json does not match the code's %v", kind, d.Name, d.Bound)
			}
		}
	}
	same("end_to_end", file.EndToEnd, endToEnd, true)
	same("per_layer", file.PerLayer, perLayer, false)
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Op: 1, Workload: "w", Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Op: 1, Workload: "w", Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Op: 1, Workload: "w", Name: "a", Start: 30, End: 60}, // overlaps span 2
		{ID: 4, Parent: 3, Op: 1, Workload: "w", Name: "b", Start: 35, End: 45},
		{ID: 5, Op: 1, Workload: "w", Name: "probe", Start: 120, End: 150}, // after the root
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 50, 2: 30, 3: 20, 4: 10, 5: 30} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	op := groupOps(spans, "w")[1]
	if op.rootMS != 100e-6 || op.rootSelf != 50e-6 || op.byName["a"] != 60e-6 || op.byName["probe"] != 30e-6 {
		t.Errorf("groupOps = %+v", op)
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(values map[string]float64) report {
		m := make(map[string]metricValue)
		for k, v := range values {
			m[k] = metricValue{Value: v}
		}
		return report{Env: currentEnv(), Seed: 1, Workloads: []workloadResult{{Name: "dice-workflow", Clients: 1, outcome: outcome{Metrics: m}}}}
	}
	a := mk(map[string]float64{"op_ms_p50": 100, "ops_per_s": 10, "cpu_ms_per_op": 100, "dataflow.batches": 7410, "core.config_ms": 1})
	verdicts := func(b report) (map[string]string, int) {
		var buf bytes.Buffer
		bad, err := compareReports(a, b, &buf)
		if err != nil {
			t.Fatal(err)
		}
		got := make(map[string]string)
		for _, line := range strings.Split(buf.String(), "\n")[1:] {
			if f := strings.Fields(line); len(f) > 2 {
				got[f[1]] = f[len(f)-1]
			}
		}
		return got, bad
	}

	bound := func(name string) float64 {
		for _, d := range endToEnd {
			if d.Name == name {
				return d.Bound
			}
		}
		t.Fatalf("no end-to-end metric %s", name)
		return 0
	}
	// op_ms_p50 worse by less than its bound is ok; ops_per_s lower by
	// more than its bound is a regression for a higher-is-better metric;
	// cpu_ms_per_op lower by more than its bound is an improvement.
	got, bad := verdicts(mk(map[string]float64{
		"op_ms_p50":        100 * (1 + 0.9*bound("op_ms_p50")),
		"ops_per_s":        10 * (1 - 1.1*bound("ops_per_s")),
		"cpu_ms_per_op":    100 * (1 - 1.1*bound("cpu_ms_per_op")),
		"dataflow.batches": 7411,
		"core.config_ms":   5,
	}))
	want := map[string]string{
		"fail_pct": verdictOK, "op_ms_p50": verdictOK, "ops_per_s": verdictRegressed,
		"cpu_ms_per_op": verdictImproved, "dataflow.batches": verdictDiffers, "core.config_ms": verdictInfo,
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("verdict of %s = %q, want %q", k, got[k], v)
		}
	}
	if bad != 2 {
		t.Errorf("bad rows = %d, want 2", bad)
	}
	if got, bad := verdicts(a); bad != 0 || got["dataflow.batches"] != verdictSame {
		t.Errorf("A against itself: %d bad rows, batches %q", bad, got["dataflow.batches"])
	}

	failing := mk(nil)
	failing.Workloads[0].FailPct = 1
	if got, _ := verdicts(failing); got["fail_pct"] != verdictRegressed {
		t.Errorf("more failures: fail_pct verdict %q", got["fail_pct"])
	}

	otherSeed := mk(nil)
	otherSeed.Seed = 2
	otherEnv := mk(nil)
	otherEnv.Env.GOMAXPROCS++
	for _, b := range []report{otherSeed, otherEnv} {
		if _, err := compareReports(a, b, &bytes.Buffer{}); err == nil {
			t.Errorf("compare accepted a report with seed %d and env %+v", b.Seed, b.Env)
		}
	}
}

// TestSmoke runs every workload through both phases once and checks
// the outputs' shape, the correctness gate and that each workload
// leaves idle the layers it claims to.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	out, traceOut := filepath.Join(dir, "out.json"), filepath.Join(dir, "trace.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-smoke", "-out", out, "-trace-out", traceOut}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d\n%s", code, stderr.String())
	}

	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line of output is not JSON: %v", err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := last[k]; !ok {
			t.Errorf("last line lacks %q", k)
		}
	}
	if len(last) != 4 {
		t.Errorf("last line has %d keys, want 4", len(last))
	}

	rep, err := readReport(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Workloads) != len(workloads) {
		t.Fatalf("%d workloads reported, want %d", len(rep.Workloads), len(workloads))
	}
	idle := map[string][]string{
		"script-mix":    {"dataflow.", "planopt.", "tasks.run_workflow_ms"},
		"dice-workflow": {"notebook.", "planopt.", "lineage.", "faults.", "shard.", "obs.", "service."},
	}
	busy := map[string][]string{
		"dice-workflow": {"tasks.run_workflow_ms", "dataflow.batches", "sim.jobs", "relation.decode_ms"},
		"script-mix":    {"tasks.run_script_ms", "notebook.cells", "raysim.tasks", "datagen.new_task_ms"},
		"features-on":   {"planopt.rewrites_applied", "lineage.hits", "lineage.commit_bytes", "faults.checkpoints", "shard.shuffle_bytes", "lineage.edit_run_ms"},
		"serve-sweeps":  {"obs.post_ms", "obs.events_per_run", "service.completed", "service.residence_ms", "telemetry.spans_per_op"},
	}
	for _, w := range rep.Workloads {
		if !w.Correct || w.Failed != 0 || w.Samples != 3 || w.TracedOps != 1 {
			t.Errorf("%s: correct=%v failed=%d samples=%d traced=%d", w.Name, w.Correct, w.Failed, w.Samples, w.TracedOps)
		}
		if len(w.Metrics) != len(endToEnd)+len(perLayer) {
			t.Errorf("%s: %d metrics reported, want %d", w.Name, len(w.Metrics), len(endToEnd)+len(perLayer))
		}
		for _, d := range endToEnd {
			if w.Metrics[d.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s reads %v", w.Name, d.Name, w.Metrics[d.Name].Value)
			}
		}
		if u := w.Metrics["trace.unattributed_pct"].Value; u <= 0 || u >= 5 {
			t.Errorf("%s: trace.unattributed_pct = %v", w.Name, u)
		}
		for name, m := range w.Metrics {
			for _, prefix := range idle[w.Name] {
				if strings.HasPrefix(name, prefix) && m.Value != 0 {
					t.Errorf("%s: %s = %v, want 0", w.Name, name, m.Value)
				}
			}
		}
		for _, name := range busy[w.Name] {
			if w.Metrics[name].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.Name, name, w.Metrics[name].Value)
			}
		}
	}

	var trace struct {
		TraceEvents []struct {
			Name string
			Args map[string]any
		}
	}
	data, err := os.ReadFile(traceOut)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatal(err)
	}
	roots := 0
	for _, e := range trace.TraceEvents {
		if e.Name == "process_name" {
			continue
		}
		if _, ok := e.Args["op"]; !ok {
			t.Fatalf("trace event %q carries no op id", e.Name)
		}
		if e.Name == "op" {
			roots++
		}
	}
	if roots != len(workloads) {
		t.Errorf("trace holds %d op roots, want %d", roots, len(workloads))
	}
}
