// Package bench is the reproduction's wall-clock benchmark harness.
// Everything else in the repo measures simulated seconds; this package
// measures how long the engine itself takes on the host machine, so
// hot-path changes (queueing, work accounting, joins, serde) can be
// compared across commits. `repro -bench-json FILE` writes its report.
package bench

import (
	"fmt"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/dataflow"
	"repro/internal/faults"
	"repro/internal/lineage"
	"repro/internal/relation"
	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/tasks/dice"
	"repro/internal/tasks/gotta"
	"repro/internal/tasks/kge"
	"repro/internal/telemetry"
)

// Micro is one micro-benchmark result.
type Micro struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

// Macro is one end-to-end workflow run: wall-clock milliseconds next
// to the simulated seconds the run computed. The Size sweep per task
// is the wall-clock trajectory. Each configuration is run with and
// without a telemetry recorder attached; OverheadPct is the relative
// wall-clock cost of instrumentation (the observability tax), which
// the telemetry PR requires to stay within a few percent.
type Macro struct {
	Task            string  `json:"task"`
	Experiment      string  `json:"experiment"`
	Size            int     `json:"size"`
	WallMS          float64 `json:"wall_ms"`
	WallMSTelemetry float64 `json:"wall_ms_telemetry,omitempty"`
	OverheadPct     float64 `json:"overhead_pct,omitempty"`
	SimSeconds      float64 `json:"sim_seconds"`
}

// Report is the full harness output. GoVersion and GOMAXPROCS predate
// the Env header and stay populated so older tooling keeps working.
type Report struct {
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Env        Env     `json:"env"`
	Micro      []Micro `json:"micro"`
	Macro      []Macro `json:"macro"`
}

// measure times f (which must perform inner operations per call) over
// three ~60ms windows and reports the median window's per-operation
// cost. Allocs and bytes are sampled separately with a single run each
// (bytes do not drift with the host the way timings do). Two choices
// here exist for noise robustness on a shared bench host, where a
// single ~100ms mean (the BENCH_1–4 estimator) swung adjacent runs of
// the same binary by double-digit percentages: the forced collection
// before the timed windows puts every micro in the same GC regime (the
// pacer otherwise inherits whatever heap target the previous micro or
// the macro suite left behind — a skew larger than some effects being
// measured), and the median discards a window that absorbed a
// neighbor's CPU burst without hiding steady-state cost the way a
// minimum would. Windows stay long enough that a micro with a large
// live fixture amortizes whole GC mark cycles inside each window
// rather than landing one in some windows and none in others — GC
// triggered by f's own allocation belongs inside the measurement,
// evenly.
func measure(name string, inner int, f func()) Micro {
	f() // warm up
	allocs := testing.AllocsPerRun(1, f) / float64(inner)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(inner)
	runtime.GC()
	const windows = 3
	perOp := make([]float64, windows)
	for w := range perOp {
		var (
			elapsed time.Duration
			ops     int
		)
		for elapsed < 60*time.Millisecond {
			start := telemetry.WallClock()
			f()
			elapsed += telemetry.WallSince(start)
			ops += inner
		}
		perOp[w] = float64(elapsed.Nanoseconds()) / float64(ops)
	}
	sort.Float64s(perOp)
	return Micro{Name: name, NsPerOp: perOp[windows/2], AllocsPerOp: allocs, BytesPerOp: bytes}
}

func joinTables(n int) (*relation.Table, *relation.Table) {
	ls := relation.MustSchema(relation.Field{Name: "k", Type: relation.Int}, relation.Field{Name: "payload", Type: relation.String})
	rs := relation.MustSchema(relation.Field{Name: "k", Type: relation.Int}, relation.Field{Name: "weight", Type: relation.Float})
	left, right := relation.NewTable(ls), relation.NewTable(rs)
	for i := 0; i < n; i++ {
		left.AppendUnchecked(relation.Tuple{int64(i % (n / 4)), fmt.Sprintf("row-%d", i)})
		right.AppendUnchecked(relation.Tuple{int64(i % (n / 2)), float64(i)})
	}
	return left, right
}

// dice200Trace records the cost trace of one DICE-200 workflow run at 4
// workers: the input lower_dice200 lowers.
func dice200Trace() (*dataflow.Trace, error) {
	task, err := dice.New(dice.Params{Pairs: 200, Seed: 1})
	if err != nil {
		return nil, err
	}
	return task.ProfileWorkflow(core.MustRunConfig(core.WithWorkers(4)))
}

// micros runs the hot-path micro-benchmarks.
func micros() []Micro {
	var out []Micro
	out = append(out, measure("queue_push_pop", 4096, func() {
		dataflow.QueuePushPopLoop(4096, 1)
	}))
	out = append(out, measure("queue_push_pop_burst256", 4096, func() {
		dataflow.QueuePushPopLoop(16, 256)
	}))
	out = append(out, measure("add_work", 65536, func() {
		dataflow.AddWorkLoop(65536)
	}))
	// The engine's own per-batch plumbing, at the batch DICE-200 moves
	// (8 rows): a 1:1 map worker, a hash router's split, and lowering
	// the trace of one whole run. allocs_per_op is what they are for —
	// each localises a share of the workflow macros' objects per op.
	out = append(out, measure("map_project_8", 4096, func() {
		dataflow.MapProjectLoop(4096)
	}))
	out = append(out, measure("route_hash_8", 4096, func() {
		dataflow.RouteHashLoop(4096)
	}))
	trace, err := dice200Trace()
	if err != nil {
		panic(err)
	}
	lowerModel := cost.Default()
	out = append(out, measure("lower_dice200", 1, func() {
		if _, _, err := dataflow.Lower(trace, lowerModel); err != nil {
			panic(err)
		}
	}))

	// Serde and digest micros run before the 100k join fixtures exist:
	// the encode loop allocates its output buffer every call, and with
	// megabytes of fixture rows live each incremental GC spends its
	// cycles scanning unrelated tuples — measured roughly 2x on
	// encode_table_10k.
	enc10k, _ := joinTables(10000)
	out = append(out, measure("encode_table_10k", 1, func() {
		if _, err := relation.EncodeTable(enc10k); err != nil {
			panic(err)
		}
	}))
	out = append(out, measure("digest_10k", 1, func() {
		if relation.Digest(enc10k) == 0 {
			panic("bench: zero digest")
		}
	}))

	left, right := joinTables(100000)
	out = append(out, measure("hash_join_100k", 1, func() {
		if _, err := relation.HashJoin(left, right, "k", "k", relation.Inner); err != nil {
			panic(err)
		}
	}))
	joiner, err := relation.NewJoiner(left.Schema(), right, "k", "k", relation.Inner, 1)
	if err != nil {
		panic(err)
	}
	batch := left.Rows()[:2048]
	out = append(out, measure("joiner_probe_2048", 2048, func() {
		joiner.ProbeRows(nil, batch)
	}))
	// The traffic dataflow actually sends: DICE-200 moves 58,088 tuples
	// in 7,410 batches, 8 rows a batch. One op is one 8-row ProbeRows
	// call (16 output rows of width 3 from this joiner), so bytes_per_op
	// is what a probe batch costs whatever the per-row price is.
	out = append(out, measure("joiner_probe_8", len(batch)/8, func() {
		for lo := 0; lo < len(batch); lo += 8 {
			joiner.ProbeRows(nil, batch[lo:lo+8])
		}
	}))
	tup := relation.Tuple{int64(42), "a reasonably sized string payload", 3.14159, true}
	out = append(out, measure("encode_tuple_pooled", 4096, func() {
		e := relation.GetEncoder()
		for i := 0; i < 4096; i++ {
			if _, err := e.EncodeTuple(tup); err != nil {
				panic(err)
			}
		}
		e.Release()
	}))

	// Telemetry hot-path primitives: the per-batch cost an instrumented
	// executor pays on top of the work itself.
	reg := telemetry.NewRegistry()
	ctr := reg.Counter("bench.counter")
	hist := reg.Histogram("bench.hist", "ns")
	gauge := reg.Gauge("bench.gauge")
	out = append(out, measure("telemetry_counter_add", 65536, func() {
		for i := 0; i < 65536; i++ {
			ctr.Add(i, 1)
		}
	}))
	out = append(out, measure("telemetry_hist_observe", 65536, func() {
		for i := 0; i < 65536; i++ {
			hist.Observe(i, int64(i))
		}
	}))
	out = append(out, measure("telemetry_gauge_set", 65536, func() {
		for i := 0; i < 65536; i++ {
			gauge.Set(i, int64(i))
		}
	}))

	// Recovery machinery: deterministic fault-plan expansion, then a
	// fault-injected DICE run per paradigm — the end-to-end price of
	// re-simulating the schedule with kills, backoff, and (for the
	// workflow) checkpoint/restore accounting folded in.
	out = append(out, measure("fault_plan_events_512", 512, func() {
		plan := faults.Plan{Seed: 1, Rate: 100}
		if ev := plan.Events(512); len(ev) == 0 {
			panic("bench: fault plan expanded to no events")
		}
	}))
	faultCfg := core.MustRunConfig(core.WithFaults(faults.Plan{
		Seed: 1, Rate: 50, NodeFraction: 0.25, CheckpointEvery: 4,
	}))
	for _, pc := range []struct {
		name string
		p    core.Paradigm
	}{
		{"script_run_faulty_dice10", core.Script},
		{"workflow_run_faulty_dice10", core.Workflow},
	} {
		task, err := dice.New(dice.Params{Pairs: 10, Seed: 1})
		if err != nil {
			panic(err)
		}
		cfg, p := faultCfg, pc.p
		out = append(out, measure(pc.name, 1, func() {
			if _, err := task.Run(p, cfg); err != nil {
				panic(err)
			}
		}))
	}

	// Lineage primitives: what the versioned artifact store charges per
	// unit — hashing provenance into a fingerprint, committing a fresh
	// result, and resolving a fingerprint that hits.
	out = append(out, measure("lineage_fingerprint", 4096, func() {
		for i := 0; i < 4096; i++ {
			fp := lineage.NewHasher().
				String("workflow:dice[pairs=200,seed=1,workers=4]").
				String("op:aggregate-write").
				Int(i).
				Uint64(0x9e3779b97f4a7c15).
				Sum()
			if fp == 0 {
				panic("bench: fingerprint chain hashed to zero")
			}
		}
	}))
	commitTable, _ := joinTables(1000)
	store, err := lineage.NewStore(nil, 1<<40)
	if err != nil {
		panic(err)
	}
	crun := store.Begin("bench:commit", nil)
	nextFP := lineage.Fingerprint(1)
	out = append(out, measure("lineage_commit_1k_rows", 1, func() {
		// A fresh fingerprint per call keeps every commit on the real
		// path (digest + priced put), never the already-present shortcut.
		nextFP++
		if a, _ := crun.Commit("bench-unit", nextFP, commitTable, 1); a == nil {
			panic("bench: commit returned no artifact")
		}
	}))
	hrun := store.Begin("bench:lookup", nil)
	for i := 0; i < 4096; i++ {
		hrun.CommitMeta(fmt.Sprintf("cell-%d", i), lineage.Fingerprint(1<<32+i), 0.001)
	}
	out = append(out, measure("lineage_hit_lookup", 4096, func() {
		for i := 0; i < 4096; i++ {
			if hrun.Lookup("cell", lineage.Fingerprint(1<<32+i)) == nil {
				panic("bench: expected lineage hit")
			}
		}
	}))

	// Fair-share scheduler: the per-job submit/dispatch/complete price
	// the serving tier charges on top of the run itself. Four tenants,
	// 1024 one-vCPU jobs, drained in synchronous rounds.
	out = append(out, measure("sched_submit_dispatch_1024", 1024, func() {
		sched := service.NewScheduler(service.Config{BudgetVCPUs: 32, QueueCap: 1024})
		tenants := [4]string{"a", "b", "c", "d"}
		for i := 0; i < 1024; i++ {
			if _, err := sched.Submit(service.Job{Tenant: tenants[i%4], VCPUs: 1, EstSeconds: 1}, 0); err != nil {
				panic(err)
			}
		}
		now := 0.0
		var batch []*service.Job
		for completed := 0; completed < 1024; {
			for {
				j, ok := sched.Next(now)
				if !ok {
					break
				}
				batch = append(batch, j)
			}
			now++
			for _, j := range batch {
				if err := sched.Complete(j.ID, now, 0); err != nil {
					panic(err)
				}
			}
			completed += len(batch)
			batch = batch[:0]
		}
	}))

	// Sharded-tier planning primitives: the pure per-operator cost the
	// distributed planner pays — datum-shard arithmetic and grace-spill
	// plan construction. Both run at plan time on every sharded lowering,
	// so they must stay allocation-light.
	spillModel := cost.Default()
	skew := 2.0 / shard.SpillFanout
	out = append(out, measure("shard_plan_spill", 1024, func() {
		for i := 0; i < 1024; i++ {
			state := int64(1+i%32) << 20
			p, err := shard.PlanSpill(spillModel, state, 1<<20, skew)
			if err != nil {
				panic(err)
			}
			if state > 1<<20 && !p.Spilled() {
				panic("bench: oversized state did not spill")
			}
		}
	}))
	out = append(out, measure("shard_split_owner_1k", 1024, func() {
		topo := shard.Of(16)
		for i := 0; i < 1024; i++ {
			parts := topo.Split(1000)
			sum := 0
			for _, p := range parts {
				sum += p
			}
			if sum != 1000 || topo.Owner(i%1000, 1000) < 0 {
				panic("bench: shard split/owner disagreed")
			}
		}
	}))
	return out
}

// macros runs small workflow configurations of the E4 (DICE) and E6
// (KGE) experiments, timing each with telemetry off and on. The two
// variants run interleaved in pairs; the overhead estimate is the
// median of the per-pair ratios, so slow drift in machine load (which
// hits both members of a pair equally) cancels instead of biasing the
// comparison the way independent minima would.
func macros(seed uint64) ([]Macro, error) {
	const reps = 7
	var out []Macro
	run := func(task core.Task, experiment string, size int) error {
		timeOnce := func(cfg core.RunConfig) (float64, float64, error) {
			start := telemetry.WallClock()
			res, err := task.Run(core.Workflow, cfg)
			if err != nil {
				return 0, 0, err
			}
			return float64(telemetry.WallSince(start).Microseconds()) / 1000, res.SimSeconds, nil
		}
		instrCfg := func() core.RunConfig { return core.MustRunConfig(core.WithTelemetry(telemetry.New())) }
		// Warm both variants (first runs pay one-time costs: page faults,
		// lazy init), then interleave timed reps so drift in machine load
		// hits both variants equally; keep each variant's fastest run.
		if _, _, err := timeOnce(core.MustRunConfig()); err != nil {
			return fmt.Errorf("bench: %s size %d: %w", experiment, size, err)
		}
		if _, _, err := timeOnce(instrCfg()); err != nil {
			return fmt.Errorf("bench: %s size %d (telemetry): %w", experiment, size, err)
		}
		plain, instr := -1.0, -1.0
		var sim float64
		ratios := make([]float64, 0, reps)
		for r := 0; r < reps; r++ {
			pw, s, err := timeOnce(core.MustRunConfig())
			if err != nil {
				return fmt.Errorf("bench: %s size %d: %w", experiment, size, err)
			}
			if plain < 0 || pw < plain {
				plain = pw
			}
			sim = s
			iw, _, err := timeOnce(instrCfg())
			if err != nil {
				return fmt.Errorf("bench: %s size %d (telemetry): %w", experiment, size, err)
			}
			if instr < 0 || iw < instr {
				instr = iw
			}
			if pw > 0 {
				ratios = append(ratios, iw/pw)
			}
		}
		overhead := 0.0
		if len(ratios) > 0 {
			sort.Float64s(ratios)
			overhead = 100 * (ratios[len(ratios)/2] - 1)
		}
		out = append(out, Macro{
			Task: task.Name(), Experiment: experiment, Size: size,
			WallMS: plain, WallMSTelemetry: instr, OverheadPct: overhead,
			SimSeconds: sim,
		})
		return nil
	}
	for _, pairs := range []int{10, 50, 200} {
		t, err := dice.New(dice.Params{Pairs: pairs, Seed: seed})
		if err != nil {
			return nil, err
		}
		if err := run(t, "fig13a", pairs); err != nil {
			return nil, err
		}
	}
	for _, products := range []int{340, 3400} {
		t, err := kge.New(kge.Params{Products: products, Seed: seed})
		if err != nil {
			return nil, err
		}
		if err := run(t, "fig13c", products); err != nil {
			return nil, err
		}
	}
	lin, err := lineageMacros(seed)
	if err != nil {
		return nil, err
	}
	out = append(out, lin...)
	shd, err := shardMacros(seed)
	if err != nil {
		return nil, err
	}
	out = append(out, shd...)
	opt, err := optMacros(seed)
	if err != nil {
		return nil, err
	}
	return append(out, opt...), nil
}

// optMacros is the end-to-end before/after pair for the cost-based
// plan optimizer: the same DICE and GOTTA workflows with `-optimize`
// off and on, at the hand-set 8-worker width the tasks ship with. The
// optimizer sweep (E15) asserts both outputs bit-identical, so the
// SimSeconds delta is the pure scheduling win of the rewrites (wider
// parallelism, fused operators, swapped join builds) and the WallMS
// delta bounds the host-side price of running the passes.
func optMacros(seed uint64) ([]Macro, error) {
	const reps = 7
	off := core.MustRunConfig(core.WithWorkers(8))
	on := core.MustRunConfig(core.WithWorkers(8), core.WithOptimize(true))

	var out []Macro
	pair := func(task core.Task, size int) error {
		timeOnce := func(cfg core.RunConfig) (float64, float64, error) {
			runtime.GC()
			start := telemetry.WallClock()
			res, err := task.Run(core.Workflow, cfg)
			if err != nil {
				return 0, 0, err
			}
			return float64(telemetry.WallSince(start).Microseconds()) / 1000, res.SimSeconds, nil
		}
		for _, cfg := range []core.RunConfig{off, on} {
			if _, _, err := timeOnce(cfg); err != nil {
				return fmt.Errorf("bench: opt warmup: %w", err)
			}
		}
		wOff, wOn := -1.0, -1.0
		var simOff, simOn float64
		for r := 0; r < reps; r++ {
			w, s, err := timeOnce(off)
			if err != nil {
				return fmt.Errorf("bench: opt-off: %w", err)
			}
			if wOff < 0 || w < wOff {
				wOff = w
			}
			simOff = s
			w, s, err = timeOnce(on)
			if err != nil {
				return fmt.Errorf("bench: opt-on: %w", err)
			}
			if wOn < 0 || w < wOn {
				wOn = w
			}
			simOn = s
		}
		out = append(out,
			Macro{Task: task.Name(), Experiment: "opt-off", Size: size, WallMS: wOff, SimSeconds: simOff},
			Macro{Task: task.Name(), Experiment: "opt-on", Size: size, WallMS: wOn, SimSeconds: simOn},
		)
		return nil
	}

	dt, err := dice.New(dice.Params{Pairs: 200, Seed: seed})
	if err != nil {
		return nil, err
	}
	if err := pair(dt, 200); err != nil {
		return nil, err
	}
	gt, err := gotta.New(gotta.Params{Paragraphs: 16, Seed: seed})
	if err != nil {
		return nil, err
	}
	if err := pair(gt, 16); err != nil {
		return nil, err
	}
	return out, nil
}

// shardMacros is the end-to-end pair for the distributed tier (E14):
// the same DICE workflow on the legacy single-cluster path and on a
// 4-node sharded topology at the lifted 32-worker width. The golden
// shard tests pin both outputs bit-identical, so the wall-clock delta
// is the host-side price of exchange pricing and spill planning, and
// the SimSeconds delta is the simulated makespan win from the wider
// cluster.
func shardMacros(seed uint64) ([]Macro, error) {
	const (
		reps  = 7
		pairs = 2000
	)
	task, err := dice.New(dice.Params{Pairs: pairs, Seed: seed})
	if err != nil {
		return nil, err
	}
	single := core.MustRunConfig(core.WithWorkers(8))
	sharded := core.MustRunConfig(core.WithWorkers(32), core.WithNodes(4))
	timeOnce := func(cfg core.RunConfig) (float64, float64, error) {
		runtime.GC()
		start := telemetry.WallClock()
		res, err := task.Run(core.Workflow, cfg)
		if err != nil {
			return 0, 0, err
		}
		return float64(telemetry.WallSince(start).Microseconds()) / 1000, res.SimSeconds, nil
	}
	for _, cfg := range []core.RunConfig{single, sharded} {
		if _, _, err := timeOnce(cfg); err != nil {
			return nil, fmt.Errorf("bench: shard warmup: %w", err)
		}
	}
	n1, n4 := -1.0, -1.0
	var n1Sim, n4Sim float64
	for r := 0; r < reps; r++ {
		w, s, err := timeOnce(single)
		if err != nil {
			return nil, fmt.Errorf("bench: scale-n1: %w", err)
		}
		if n1 < 0 || w < n1 {
			n1 = w
		}
		n1Sim = s
		w, s, err = timeOnce(sharded)
		if err != nil {
			return nil, fmt.Errorf("bench: scale-n4: %w", err)
		}
		if n4 < 0 || w < n4 {
			n4 = w
		}
		n4Sim = s
	}
	return []Macro{
		{Task: task.Name(), Experiment: "scale-n1", Size: pairs, WallMS: n1, SimSeconds: n1Sim},
		{Task: task.Name(), Experiment: "scale-n4", Size: pairs, WallMS: n4, SimSeconds: n4Sim},
	}, nil
}

// lineageMacros times the iterate workload's two wall-clock extremes on
// the DICE workflow: a cold run with no store attached, and a fully
// warm run against a populated store where every operator hits, so the
// engine's work is provenance resolution plus replay of cached tables.
// The pair bounds what the artifact store costs (or saves) in host
// time, as opposed to the simulated seconds the iterate experiment
// reports.
func lineageMacros(seed uint64) ([]Macro, error) {
	const (
		reps  = 7
		pairs = 50
	)
	task, err := dice.New(dice.Params{Pairs: pairs, Seed: seed})
	if err != nil {
		return nil, err
	}
	store, err := lineage.NewStore(nil, 0)
	if err != nil {
		return nil, err
	}
	warmCfg := core.MustRunConfig(core.WithLineage(store))
	// Populate pass, untimed: after it every fingerprint in the warm
	// variant's plan resolves to a committed artifact.
	if _, err := task.Run(core.Workflow, warmCfg); err != nil {
		return nil, err
	}
	timeOnce := func(cfg core.RunConfig) (float64, float64, error) {
		start := telemetry.WallClock()
		res, err := task.Run(core.Workflow, cfg)
		if err != nil {
			return 0, 0, err
		}
		return float64(telemetry.WallSince(start).Microseconds()) / 1000, res.SimSeconds, nil
	}
	cold, warm := -1.0, -1.0
	var coldSim, warmSim float64
	for r := 0; r < reps; r++ {
		cw, cs, err := timeOnce(core.MustRunConfig())
		if err != nil {
			return nil, fmt.Errorf("bench: iterate-cold: %w", err)
		}
		if cold < 0 || cw < cold {
			cold = cw
		}
		coldSim = cs
		ww, ws, err := timeOnce(warmCfg)
		if err != nil {
			return nil, fmt.Errorf("bench: iterate-warm: %w", err)
		}
		if warm < 0 || ww < warm {
			warm = ww
		}
		warmSim = ws
	}
	return []Macro{
		{Task: task.Name(), Experiment: "iterate-cold", Size: pairs, WallMS: cold, SimSeconds: coldSim},
		{Task: task.Name(), Experiment: "iterate-warm", Size: pairs, WallMS: warm, SimSeconds: warmSim},
	}, nil
}

// Run executes the full harness.
func Run(seed uint64) (*Report, error) {
	mac, err := macros(seed)
	if err != nil {
		return nil, err
	}
	return &Report{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Env:        CurrentEnv(),
		Micro:      micros(),
		Macro:      mac,
	}, nil
}
