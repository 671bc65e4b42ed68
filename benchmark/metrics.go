package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric. BENCHMARK.json at the repository
// root lists the same names, units, directions and bounds;
// TestBenchmarkJSONMatchesCode keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the base value by which an end-to-end
	// metric may worsen before -compare calls it a regression; per-layer
	// metrics have none.
	Bound float64
	// Exact marks a per-layer count that a deterministic run must
	// repeat on the batch workloads (to simTolerance, which for a whole
	// number is exactly); -compare reports any difference.
	Exact bool
	// Span names the benchmark span a per-layer time is taken from.
	Span string
}

// endToEnd is what a user of the system sees, measured with tracing
// off. fail_pct and the sample count ride along in every report but are
// not listed here: a metric in this table must never read zero.
//
// The bounds are what the 2-core sandbox this was written on can
// resolve, not what one would wish for: its speed drifts by 10–18 %
// over minutes (CPU time per op drifts with it), so between single runs
// of one commit the timings spread that far; the allocation metrics
// move only with the seed's data, by 3–4 %.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "op_ms_p90", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "alloc_mb_per_op", Unit: "MB", Better: "lower", Bound: 0.12},
	{Name: "kallocs_per_op", Unit: "kcount", Better: "lower", Bound: 0.10},
	{Name: "live_heap_mb", Unit: "MB", Better: "lower", Bound: 0.10},
}

// perLayer comes from the traced phase. An entry with a Span is the
// median over traced ops of the time the op spent in spans of that
// name; every other entry is a mean per op of what the engines counted.
var perLayer = []metricDef{
	{Name: "sim_s_per_op", Unit: "sim_s", Better: "lower", Exact: true},
	{Name: "core.config_ms", Unit: "ms", Better: "lower", Span: "core.config"},
	{Name: "datagen.new_task_ms", Unit: "ms", Better: "lower", Span: "datagen.new_task"},
	{Name: "tasks.run_workflow_ms", Unit: "ms", Better: "lower", Span: "tasks.run_workflow"},
	{Name: "tasks.run_script_ms", Unit: "ms", Better: "lower", Span: "tasks.run_script"},
	{Name: "tasks.plan_build_ms", Unit: "ms", Better: "lower", Span: "tasks.plan_build"},
	{Name: "dataflow.validate_ms", Unit: "ms", Better: "lower", Span: "dataflow.validate"},
	{Name: "planopt.optimize_ms", Unit: "ms", Better: "lower", Span: "planopt.optimize"},
	{Name: "planopt.rewrites_applied", Unit: "count", Better: "higher", Exact: true},
	{Name: "dataflow.op_busy_ms", Unit: "ms", Better: "lower"},
	{Name: "dataflow.batches", Unit: "count", Better: "lower", Exact: true},
	{Name: "dataflow.edge_tuples", Unit: "count", Better: "lower", Exact: true},
	{Name: "dataflow.edge_bytes", Unit: "bytes", Better: "lower", Exact: true},
	{Name: "dataflow.lower_ms", Unit: "ms", Better: "lower", Span: "dataflow.lower"},
	{Name: "sim.schedule_ms", Unit: "ms", Better: "lower", Span: "sim.schedule"},
	{Name: "sim.jobs", Unit: "count", Better: "lower", Exact: true},
	{Name: "relation.digest_ms", Unit: "ms", Better: "lower", Span: "relation.digest"},
	{Name: "relation.encode_ms", Unit: "ms", Better: "lower", Span: "relation.encode"},
	{Name: "relation.decode_ms", Unit: "ms", Better: "lower", Span: "relation.decode"},
	{Name: "relation.out_rows", Unit: "count", Better: "lower", Exact: true},
	{Name: "relation.kernel_col_calls", Unit: "count", Better: "higher", Exact: true},
	{Name: "relation.kernel_row_calls", Unit: "count", Better: "lower", Exact: true},
	{Name: "notebook.cell_busy_ms", Unit: "ms", Better: "lower"},
	{Name: "notebook.cells", Unit: "count", Better: "lower", Exact: true},
	{Name: "raysim.tasks", Unit: "count", Better: "lower", Exact: true},
	{Name: "lineage.hits", Unit: "count", Better: "higher", Exact: true},
	{Name: "lineage.misses", Unit: "count", Better: "lower", Exact: true},
	{Name: "lineage.hit_bytes", Unit: "bytes", Better: "higher", Exact: true},
	{Name: "lineage.commit_bytes", Unit: "bytes", Better: "lower", Exact: true},
	{Name: "lineage.cold_run_ms", Unit: "ms", Better: "lower", Span: "lineage.cold_run"},
	{Name: "lineage.edit_run_ms", Unit: "ms", Better: "lower", Span: "lineage.edit_run"},
	{Name: "faults.kills", Unit: "count", Better: "lower", Exact: true},
	{Name: "faults.checkpoints", Unit: "count", Better: "lower", Exact: true},
	{Name: "shard.shuffle_bytes", Unit: "bytes", Better: "lower", Exact: true},
	{Name: "shard.spill_bytes", Unit: "bytes", Better: "lower", Exact: true},
	{Name: "telemetry.spans_per_op", Unit: "count", Better: "lower"},
	{Name: "telemetry.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "obs.post_ms", Unit: "ms", Better: "lower", Span: "obs.post"},
	{Name: "obs.events_ms", Unit: "ms", Better: "lower", Span: "obs.events"},
	{Name: "obs.get_run_ms", Unit: "ms", Better: "lower", Span: "obs.get_run"},
	{Name: "obs.events_per_run", Unit: "count", Better: "lower"},
	{Name: "obs.dropped_events", Unit: "count", Better: "lower"},
	{Name: "service.residence_ms", Unit: "ms", Better: "lower"},
	{Name: "service.submitted", Unit: "count", Better: "higher"},
	{Name: "service.rejected", Unit: "count", Better: "lower"},
	{Name: "service.completed", Unit: "count", Better: "higher"},
	{Name: "service.served_vcpu_s", Unit: "vcpu_s", Better: "higher"},
	{Name: "trace.unattributed_pct", Unit: "%", Better: "lower"},
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// fill reports every metric of defs, reading absent values as zero: a
// layer a workload never enters must say so explicitly.
func fill(dst map[string]metricValue, defs []metricDef, values map[string]float64) {
	for _, d := range defs {
		dst[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
}

// validName reports whether s fits the metric/workload-name contract:
// 1–64 characters of [A-Za-z0-9_.-], starting with a letter or digit.
func validName(s string) bool {
	if len(s) == 0 || len(s) > 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		alnum := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
		if !alnum && (i == 0 || c != '_' && c != '.' && c != '-') {
			return false
		}
	}
	return true
}

// percentile picks the nearest-rank p-th percentile (0 < p <= 100) of
// an ascending slice: the smallest sample with at least p % of the
// samples at or below it. An empty slice reads 0.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median sorts a copy of xs and picks its 50th percentile.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 50)
}
