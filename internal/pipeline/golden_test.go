package pipeline_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/lineage"
	"repro/internal/pipeline"
	"repro/internal/relation"

	_ "repro/internal/tasks/dice"
	_ "repro/internal/tasks/gotta"
	_ "repro/internal/tasks/kge"
	_ "repro/internal/tasks/wef"
)

// The pipeline golden pins everything a run reports — not just the
// digest — for every task under both paradigms with each run option on
// alone. It was recorded at the commit before the eight hand-wired
// runners were folded into this package, so it is the proof that the
// one pipeline does what each of them did. A new run option adds a
// variant here rather than a per-task test — and that is the only
// reason to run -update: it re-records every row from the current tree,
// so the diff it leaves must add rows and move none.

var update = flag.Bool("update", false, "re-record testdata/pipeline_golden.json from the current tree (to add a variant; existing rows must not move)")

const goldenPath = "testdata/pipeline_golden.json"

// goldenRow is one (task, paradigm, variant) run.
type goldenRow struct {
	Case          string              `json:"case"`
	Digest        string              `json:"digest"`
	SimSeconds    float64             `json:"sim_seconds"`
	LinesOfCode   int                 `json:"lines_of_code"`
	Operators     int                 `json:"operators"`
	ParallelProcs int                 `json:"parallel_procs"`
	Trace         core.TraceTotals    `json:"trace"`
	Recovery      core.RecoveryTotals `json:"recovery"`
	LineageHits   int                 `json:"lineage_hits"`
	LineageMisses int                 `json:"lineage_misses"`
}

// goldenTasks fixes the small input size and the stage the lineage
// variant edits between its cold run and its re-run.
var goldenTasks = []struct {
	name string
	size int
	edit string
}{
	{"dice", 20, "write"},
	{"wef", 40, "shape"},
	{"gotta", 2, "evaluate"},
	{"kge", 340, "compute-distance"},
}

// goldenWorkers is the worker count per paradigm. Workflows run at one:
// with more, an operator's parallel workers fold their float work in
// batch-arrival order, so the trace's work totals differ in the last
// unit between two runs of one commit (DICE about one run in five, KGE
// one in a hundred), and the golden holds them exactly.
var goldenWorkers = map[core.Paradigm]int{core.Script: 4, core.Workflow: 1}

// goldenVariants are the run options, one at a time.
var goldenVariants = []struct {
	name string
	spec core.RunSpec
}{
	{"plain", core.RunSpec{}},
	{"optimize", core.RunSpec{Optimize: true}},
	{"nodes4", core.RunSpec{Nodes: 4}},
	{"faults", core.RunSpec{FaultRate: 6, FaultSeed: 7, NodeFraction: 0.25, CheckpointEvery: 4}},
}

func rowOf(name string, res *core.Result) goldenRow {
	row := goldenRow{
		Case:          name,
		Digest:        fmt.Sprintf("%016x", relation.Digest(res.Output)),
		SimSeconds:    res.SimSeconds,
		LinesOfCode:   res.LinesOfCode,
		Operators:     res.Operators,
		ParallelProcs: res.ParallelProcs,
		Trace:         res.Trace,
		Recovery:      res.Recovery,
	}
	if res.Lineage != nil {
		row.LineageHits, row.LineageMisses = res.Lineage.Hits, res.Lineage.Misses
	}
	return row
}

// goldenRows runs the whole matrix on the current tree.
func goldenRows(t *testing.T) []goldenRow {
	t.Helper()
	var rows []goldenRow
	for _, gt := range goldenTasks {
		for _, v := range goldenVariants {
			for _, p := range []core.Paradigm{core.Script, core.Workflow} {
				name := fmt.Sprintf("%s/%s/%s", gt.name, p, v.name)
				spec := v.spec
				spec.Task, spec.Size, spec.Seed = gt.name, gt.size, 1
				spec.Paradigm, spec.Workers = p.String(), goldenWorkers[p]
				results, err := spec.Run()
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				rows = append(rows, rowOf(name, results[0]))
			}
		}

		// Lineage: a cold run, then a re-run after one edit, on one
		// store per paradigm.
		task, err := core.NewTask(gt.name, gt.size, 1)
		if err != nil {
			t.Fatal(err)
		}
		editable, ok := task.(interface{ SetEdits(map[string]int) })
		if !ok {
			t.Fatalf("%s takes no edits", gt.name)
		}
		for _, p := range []core.Paradigm{core.Script, core.Workflow} {
			store, err := lineage.NewStore(nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			cfg := core.RunConfig{Workers: goldenWorkers[p], Lineage: store}
			for _, step := range []struct {
				name string
				revs map[string]int
			}{
				{"lineage-cold", nil},
				{"lineage-edit", map[string]int{gt.edit: 1}},
			} {
				name := fmt.Sprintf("%s/%s/%s", gt.name, p, step.name)
				editable.SetEdits(step.revs)
				res, err := task.Run(p, cfg)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				rows = append(rows, rowOf(name, res))
			}
		}
	}
	return rows
}

// sameRow compares two rows: sim-seconds to 1e-9 relative (the engines
// fold float sums in goroutine order, so the last unit wobbles run to
// run), everything else exactly.
func sameRow(want, got goldenRow) bool {
	near := math.Abs(want.SimSeconds-got.SimSeconds) <= 1e-9*math.Abs(want.SimSeconds)
	got.SimSeconds = want.SimSeconds
	return near && want == got
}

func TestPipelineGolden(t *testing.T) {
	got := goldenRows(t)
	if *update {
		b, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenRow
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("golden has %d rows, the matrix ran %d", len(want), len(got))
	}
	for i := range want {
		if !sameRow(want[i], got[i]) {
			t.Errorf("%s:\n  want %+v\n  got  %+v", want[i].Case, want[i], got[i])
		}
	}
}

// TestWorkflowPlanAboveLegacyCeiling: a bare worker count names no
// topology, so WorkflowPlan holds it to no ceiling — a sharded config
// may inspect a plan wider than the legacy tier's 32 vCPUs.
func TestWorkflowPlanAboveLegacyCeiling(t *testing.T) {
	for _, gt := range goldenTasks {
		task, err := core.NewTask(gt.name, gt.size, 1)
		if err != nil {
			t.Fatal(err)
		}
		w, err := task.(pipeline.PlanProvider).WorkflowPlan(64)
		if err != nil {
			t.Fatalf("%s: %v", gt.name, err)
		}
		for _, d := range dataflow.Validate(w) {
			t.Errorf("%s: %s", gt.name, d)
		}
	}
}

// raceBuild reports whether the test binary was built with the race
// detector, under which byte counts wobble from run to run.
func raceBuild() bool {
	bi, ok := debug.ReadBuildInfo()
	return ok && slices.ContainsFunc(bi.Settings, func(s debug.BuildSetting) bool { return s.Key == "-race" && s.Value == "true" })
}

// TestDiceWorkflowAllocBudget is the wall-clock guard CI can fail on:
// timings drift 10–18 % on shared runners, bytes and object counts do
// not. Each run is measured warm, datagen included.
//
// A DICE-50 workflow run at 4 workers allocates about 1.4 MB in
// 1.36–1.37 k objects (1.41–1.42 k under the race detector), of a
// 1,610,000-byte and 1,480-object budget.
// (With the join's fixed 1024-row output arena per probe batch the same
// run allocated 82.4 MB; with map UDFs returning a slice per row, the
// router building a key string per row and lowering naming every job it
// was 3.9 MB in 48.1 k objects; with brat splitting every annotation
// line into fresh slices, Render going through Fprintf and a join key
// built per reference, 3.1 MB in 21.6 k; with every string cell and
// every integer over 255 boxed in an interface, 2.2 MB in 12.6 k; with
// a slice per join key and storage sized per batch, not per operator
// run, 2.1 MB in 8.7 k; with join-sentences building the rows
// filter-containing throws away, 2.2 MB in 4.5 k; with output storage,
// queues, worker state and the join plan allocated per worker, not per
// operator, 1.7 MB in 4.0 k; with an edge queue and a router goroutine
// per edge, 1.7 MB in 2.8 k; with jobs that carried an ID, a name and
// a pool name into a scheduler that mapped them back to positions,
// 1.64–1.70 MB in 2.5 k; with an arena source per operator, each
// keeping the empty tail of its own last chunk, 2.33–2.45 k objects;
// with each join instance copying its build side row by row into a
// table of its own and keying it through a Go map, 1.50–1.52 k.)
//
// The same run at 32 workers on 4 nodes has hundreds of operator
// instances that see one or two batches each, so it pins the empty tail
// the run's last arena chunk leaves: it takes 1.8 MB of a
// 2,600,000-byte budget (2.2 MB with jobs that carried IDs and names;
// a budget 5 % over this run's readings would not fail that build, so
// it stays); arenas whose chunks never fell below 16 rows
// took 3.1 MB, and a join building the rows its filter rejects 2.7 MB.
// It also pins what an operator allocates per worker: 2.40–2.44 k
// objects (2.56–2.61 k under the race detector) of a 2,900 budget. A
// worker is a slot that the run's GOMAXPROCS runners step, and a node's
// in-port queues take their first rings from one block, so the reading
// moves by a few dozen objects from run to run. With each join
// instance copying its build side into a table of its own, regrown row
// by row, and keying it through a Go map, it read 3.32–3.35 k. With a
// goroutine, a wake-up channel and a ring of its own per worker it read
// 4.9–5.4 k
// (goroutine starts and channel waits moved it by ±300); with an arena
// source per operator instead of one per run as well, 5.4–6.0 k; with an
// edge queue and a router goroutine per edge, 6.0 k; with an output
// arena, queues, a wake-up channel per port, a work slice, an ExecCtx
// and a join plan of each instance's own, it was 11.2 k, and with every
// join instance building its index as one map per worker of the
// operator, filled by two goroutines per worker, 14.0–14.4 k.
//
// A race build allocates about 5 % more bytes, varying from run to run
// (2.47–2.61 MB for the second run), so under the race detector only
// the object budget is enforced; the plain test run enforces the bytes.
func TestDiceWorkflowAllocBudget(t *testing.T) {
	race := raceBuild()
	for _, c := range []struct {
		spec       core.RunSpec
		byteBudget uint64
		objBudget  uint64
	}{
		{core.RunSpec{Task: "dice", Paradigm: "workflow", Size: 50, Seed: 1, Workers: 4}, 1_610_000, 1_480},
		{core.RunSpec{Task: "dice", Paradigm: "workflow", Size: 50, Seed: 1, Workers: 32, Nodes: 4}, 2_600_000, 2_900},
	} {
		run := func() (bytes, objects uint64) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := c.spec.Run(); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
		}
		run() // warm-up: lazy initialisation is not the run's cost
		bytes, objects := run()
		name := fmt.Sprintf("DICE-50 workflow run at %d workers on %d node(s)", c.spec.Workers, max(c.spec.Nodes, 1))
		t.Logf("%s allocated %d bytes of a %d budget in %d objects", name, bytes, c.byteBudget, objects)
		if !race && bytes > c.byteBudget {
			t.Errorf("%s allocated %d bytes, budget %d", name, bytes, c.byteBudget)
		}
		if c.objBudget > 0 && objects > c.objBudget {
			t.Errorf("%s allocated %d objects, budget %d", name, objects, c.objBudget)
		}
	}
}

// TestKGEWorkflowAllocBudget is TestDiceWorkflowAllocBudget for the
// KGE workflow, the run serve-sweeps sweeps: a KGE-3400 run at 4
// workers, measured warm, datagen and training included, takes
// 2.80-2.90 MB in about 0.74 k heap objects, of a 3,300,000-byte and
// 1,500-object budget. (With the rank stage holding and sorting every
// candidate to emit the nearest ten, it took 3.85-3.92 MB; with every
// stage decoding into fresh slices, a delta slice per candidate, an
// encoded string per vector handed on and a boxed tuple per row,
// 38.5 k objects.) Its bytes move by a few per cent with batch arrival
// order, and more under the race detector, which skips the byte budget.
func TestKGEWorkflowAllocBudget(t *testing.T) {
	const byteBudget, objBudget = 3_300_000, 1_500
	spec := core.RunSpec{Task: "kge", Paradigm: "workflow", Size: 3400, Seed: 1, Workers: 4}
	run := func() (bytes, objects uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := spec.Run(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
	}
	run() // warm-up: lazy initialisation is not the run's cost
	bytes, objects := run()
	t.Logf("KGE-3400 workflow run at 4 workers allocated %d bytes of a %d budget in %d objects of %d", bytes, byteBudget, objects, objBudget)
	if !raceBuild() && bytes > byteBudget {
		t.Errorf("KGE-3400 workflow run at 4 workers allocated %d bytes, budget %d", bytes, byteBudget)
	}
	if objects > objBudget {
		t.Errorf("KGE-3400 workflow run at 4 workers allocated %d objects, budget %d", objects, objBudget)
	}
}

// TestScriptAllocBudget is TestDiceWorkflowAllocBudget for the script
// paradigm: heap objects per run (datagen included) of benchmark's
// script-mix specs, each budget about 1.5 times what the run takes
// (DICE 1.4 k, GOTTA 3.0 k, KGE 0.2 k). WEF's is tighter: it takes
// 3,047, and 3,446 when its predictions tokenized each tweet once per
// member and scanned the eval indices once per tweet, which its budget
// of 3,300 fails. (With every embedding
// row of WEF's four 4,096-row tables drawn up front, each tweet
// re-tokenized on every SGD step and a token per strings.Builder, two
// Sprintfs per KGE product and an entity row per allocation, WEF, GOTTA
// and KGE took 99.8 k, 12.3 k and 59.6 k; with a copied embedding row
// and a delta slice per KGE candidate, 12.4 k; with DICE splitting each
// case's sentences twice, a fresh entity map per case and a boxed tuple
// per output record, DICE took 3.9 k.) KGE's run also has a byte
// budget, 2,400,000, of which it takes 2,268,232 (model training
// included); with every in-stock candidate scored into a slice and the
// slice sorted to keep the nearest ten, it took 2,659,760-2,659,968. A
// race build skips it.
func TestScriptAllocBudget(t *testing.T) {
	for _, c := range []struct {
		task       string
		size       int
		byteBudget uint64 // 0: objects only
		objBudget  uint64
	}{
		{"dice", 200, 0, 2_200},
		{"wef", 200, 0, 3_300},
		{"gotta", 16, 0, 4_700},
		{"kge", 6800, 2_400_000, 300},
	} {
		spec := core.RunSpec{Task: c.task, Paradigm: "script", Size: c.size, Seed: 1, Workers: 4}
		run := func() (bytes, objects uint64) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := spec.Run(); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
		}
		run() // warm-up: lazy initialisation is not the run's cost
		bytes, objects := run()
		t.Logf("%s script-%d allocated %d bytes in %d objects of a %d budget", c.task, c.size, bytes, objects, c.objBudget)
		if c.byteBudget > 0 && !raceBuild() && bytes > c.byteBudget {
			t.Errorf("%s script-%d allocated %d bytes, budget %d", c.task, c.size, bytes, c.byteBudget)
		}
		if objects > c.objBudget {
			t.Errorf("%s script-%d allocated %d objects, budget %d", c.task, c.size, objects, c.objBudget)
		}
	}
}
