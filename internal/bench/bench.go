// Package bench is the reproduction's wall-clock benchmark harness.
// Everything else in the repo measures simulated seconds; this package
// measures how long the engine itself takes on the host machine, and
// how many heap objects it makes doing it, so hot-path changes
// (queueing, work accounting, joins, serde) can be read across commits.
// `repro bench FILE` writes its report; `repro bench-check` gates the
// part of it that does not drift with the host (regress.go).
package bench

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"time"

	"repro/internal/brat"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/dataflow"
	"repro/internal/datagen"
	"repro/internal/faults"
	"repro/internal/lineage"
	"repro/internal/ml/textclf"
	"repro/internal/relation"
	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/tasks/dice"
	_ "repro/internal/tasks/gotta" // registers "gotta" for the pairs table
	_ "repro/internal/tasks/kge"   // registers "kge"
	"repro/internal/telemetry"
	"repro/internal/textproc"
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
// is the wall-clock trajectory. The fig13a and fig13c rows are also run
// with a telemetry recorder attached; OverheadPct is the relative
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

// Env is the benchmark host fingerprint stamped into every report, for
// people reading its wall-clock columns: those are only comparable
// between runs on one machine configuration. Compare does not read it,
// because it does not read wall time.
type Env struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	// GOGC is the GC target from the environment; empty means the
	// default (100). GC pacing shifts every allocation-heavy micro.
	GOGC string `json:"gogc,omitempty"`
}

// allocsPerRun is the least of three one-run AllocsPerRun readings of
// f, taken with the collector off: a collection's background work lands
// objects in the process-wide count, which read one micro 21 or 23.
func allocsPerRun(f func()) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return min(testing.AllocsPerRun(1, f), testing.AllocsPerRun(1, f), testing.AllocsPerRun(1, f))
}

// measure times f (which must perform inner operations per call) over
// three windows of at least window each (60ms for a report whose
// ns_per_op will be read, 1ms when only the counts are) and reports the
// median window's per-operation cost. Bytes are sampled separately from
// one run (bytes do not drift with the host the way timings do), allocs
// as the least of three one-run readings (AllocsPerRun counts every
// goroutine's mallocs). Two choices here exist for noise robustness on
// a shared bench host, where a single ~100ms mean (the BENCH_1–4
// estimator) swung adjacent runs of the same binary by double-digit
// percentages: the forced collection before the timed windows puts
// every micro in the same GC regime (the
// pacer otherwise inherits whatever heap target the previous micro or
// the macro suite left behind — a skew larger than some effects being
// measured), and the median discards a window that absorbed a
// neighbor's CPU burst without hiding steady-state cost the way a
// minimum would. Windows stay long enough that a micro with a large
// live fixture amortizes whole GC mark cycles inside each window
// rather than landing one in some windows and none in others — GC
// triggered by f's own allocation belongs inside the measurement,
// evenly.
func measure(name string, inner int, window time.Duration, f func()) Micro {
	f() // warm up
	allocs := allocsPerRun(f) / float64(inner)
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
		for elapsed < window {
			start := telemetry.WallClock()
			f()
			elapsed += telemetry.WallSince(start)
			ops += inner
		}
		perOp[w] = float64(elapsed.Nanoseconds()) / float64(ops)
	}
	slices.Sort(perOp)
	return Micro{Name: name, NsPerOp: perOp[windows/2], AllocsPerOp: allocs, BytesPerOp: bytes}
}

func joinTables(n int) (*relation.Table, *relation.Table) {
	ls := relation.MustSchema(relation.Field{Name: "k", Type: relation.Int}, relation.Field{Name: "payload", Type: relation.String})
	rs := relation.MustSchema(relation.Field{Name: "k", Type: relation.Int}, relation.Field{Name: "weight", Type: relation.Float})
	left, right := relation.NewTable(ls), relation.NewTable(rs)
	for i := 0; i < n; i++ {
		left.AppendUnchecked(relation.Tuple{relation.IntValue(int64(i % (n / 4))), relation.StringValue(fmt.Sprintf("row-%d", i))})
		right.AppendUnchecked(relation.Tuple{relation.IntValue(int64(i % (n / 2))), relation.FloatValue(float64(i))})
	}
	return left, right
}

// diceEntities is a build side shaped like DICE's extracted entities
// ({ekey, start, end, text}, eight entities a case, one key in 64
// repeated) and the schema of the events that probe it by themekey.
func diceEntities(n int) (build *relation.Table, probe *relation.Schema) {
	build = relation.NewTable(relation.MustSchema(
		relation.Field{Name: "ekey", Type: relation.String},
		relation.Field{Name: "start", Type: relation.Int},
		relation.Field{Name: "end", Type: relation.Int},
		relation.Field{Name: "text", Type: relation.String},
	))
	for i := 0; i < n; i++ {
		id := i - i%64/63 // the 64th key of each run repeats the 63rd
		build.AppendUnchecked(relation.Tuple{relation.StringValue(fmt.Sprintf("case-%04d|T%d", id/8, id%8+1)),
			relation.IntValue(int64(10 * i)), relation.IntValue(int64(10*i + 7)), relation.StringValue("chest pain")})
	}
	return build, relation.MustSchema(
		relation.Field{Name: "case", Type: relation.String},
		relation.Field{Name: "themekey", Type: relation.String},
	)
}

// dice200Trace records the cost trace of one DICE-200 workflow run at 4
// workers: the input lower_dice200 lowers.
func dice200Trace() (*dataflow.Trace, error) {
	task, err := dice.New(dice.Params{Pairs: 200, Seed: 1})
	if err != nil {
		return nil, err
	}
	return task.ProfileWorkflow(core.RunConfig{Workers: 4})
}

// micros runs the hot-path micro-benchmarks, each timed over windows of
// the given length.
func micros(window time.Duration) []Micro {
	var out []Micro
	out = append(out, measure("queue_push_pop", 4096, window, func() {
		dataflow.QueuePushPopLoop(4096, 1)
	}))
	out = append(out, measure("queue_push_pop_burst256", 4096, window, func() {
		dataflow.QueuePushPopLoop(16, 256)
	}))
	out = append(out, measure("add_work", 65536, window, func() {
		dataflow.AddWorkLoop(65536)
	}))
	// The engine's own per-batch plumbing, at the batch DICE-200 moves
	// (8 rows): a 1:1 map worker, a hash edge's split, and lowering
	// the trace of one whole run. allocs_per_op is what they are for —
	// each localises a share of the workflow macros' objects per op.
	out = append(out, measure("map_project_8", 4096, window, func() {
		dataflow.MapProjectLoop(4096)
	}))
	out = append(out, measure("route_hash_8", 4096, window, func() {
		dataflow.RouteHashLoop(4096)
	}))
	trace, err := dice200Trace()
	if err != nil {
		panic(err)
	}
	lowerModel := cost.Default()
	out = append(out, measure("lower_dice200", 1, window, func() {
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
	out = append(out, measure("encode_table_10k", 1, window, func() {
		if _, err := relation.EncodeTable(enc10k); err != nil {
			panic(err)
		}
	}))
	out = append(out, measure("digest_10k", 1, window, func() {
		if relation.Digest(enc10k) == 0 {
			panic("bench: zero digest")
		}
	}))

	left, right := joinTables(100000)
	out = append(out, measure("hash_join_100k", 1, window, func() {
		if _, err := relation.HashJoin(left, right, "k", "k", relation.Inner); err != nil {
			panic(err)
		}
	}))
	joiner, err := relation.NewJoiner(left.Schema(), right, "k", "k", relation.Inner)
	if err != nil {
		panic(err)
	}
	batch := left.Rows()[:2048]
	out = append(out, measure("joiner_probe_2048", 2048, window, func() {
		joiner.ProbeRows(&relation.Arena{}, nil, batch, nil)
	}))
	// The traffic dataflow actually sends: DICE-200 moves 58,088 tuples
	// in 7,410 batches, 8 rows a batch. One op is one 8-row ProbeRows
	// call (16 output rows of width 3 from this joiner) through the
	// arena and scratch one join instance keeps for its run, so
	// bytes_per_op is what a probe batch costs whatever the per-row
	// price is.
	var (
		probeOut   relation.Arena
		probeHeads []int32
	)
	out = append(out, measure("joiner_probe_8", len(batch)/8, window, func() {
		for lo := 0; lo < len(batch); lo += 8 {
			_, probeHeads, _, _ = joiner.ProbeRows(&probeOut, probeHeads, batch[lo:lo+8], nil)
		}
	}))
	// The build side DICE's entity joins index: string keys shaped like
	// its "case|T<n>" ekey, nearly all distinct. One op is one build.
	entities, entityKeys := diceEntities(2048)
	out = append(out, measure("join_build_dice", 1, window, func() {
		if _, err := relation.NewJoiner(entityKeys, entities, "themekey", "ekey", relation.Inner); err != nil {
			panic(err)
		}
	}))
	tup := relation.Tuple{relation.IntValue(42), relation.StringValue("a reasonably sized string payload"), relation.FloatValue(3.14159), relation.BoolValue(true)}
	out = append(out, measure("encode_tuple_pooled", 4096, window, func() {
		e := relation.GetEncoder()
		for i := 0; i < 4096; i++ {
			e.EncodeTuple(tup)
		}
		e.Release()
	}))

	// Telemetry hot-path primitives: the per-batch cost an instrumented
	// executor pays on top of the work itself.
	reg := telemetry.NewRegistry()
	ctr := reg.Counter("bench.counter")
	hist := reg.Histogram("bench.hist", "ns")
	gauge := reg.Gauge("bench.gauge")
	out = append(out, measure("telemetry_counter_add", 65536, window, func() {
		for i := 0; i < 65536; i++ {
			ctr.Add(1)
		}
	}))
	out = append(out, measure("telemetry_hist_observe", 65536, window, func() {
		for i := 0; i < 65536; i++ {
			hist.Observe(int64(i))
		}
	}))
	out = append(out, measure("telemetry_gauge_set", 65536, window, func() {
		for i := 0; i < 65536; i++ {
			gauge.Set(int64(i))
		}
	}))

	// Recovery machinery: deterministic fault-plan expansion, then a
	// fault-injected DICE run per paradigm — the end-to-end price of
	// re-simulating the schedule with kills, backoff, and (for the
	// workflow) checkpoint/restore accounting folded in.
	out = append(out, measure("fault_plan_events_512", 512, window, func() {
		plan := faults.Plan{Seed: 1, Rate: 100}
		if ev := plan.Events(512); len(ev) == 0 {
			panic("bench: fault plan expanded to no events")
		}
	}))
	// The model is set here so the timed run does not allocate one.
	faultCfg := core.RunConfig{Model: cost.Default(), Faults: faults.Plan{
		Seed: 1, Rate: 50, NodeFraction: 0.25, CheckpointEvery: 4,
	}}
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
		out = append(out, measure(pc.name, 1, window, func() {
			if _, err := task.Run(p, cfg); err != nil {
				panic(err)
			}
		}))
	}

	// Lineage primitives: what the versioned artifact store charges per
	// unit — hashing provenance into a fingerprint, committing a fresh
	// result, and resolving a fingerprint that hits.
	out = append(out, measure("lineage_fingerprint", 4096, window, func() {
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
	out = append(out, measure("lineage_commit_1k_rows", 1, window, func() {
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
	out = append(out, measure("lineage_hit_lookup", 4096, window, func() {
		for i := 0; i < 4096; i++ {
			if hrun.Lookup("cell", lineage.Fingerprint(1<<32+i)) == nil {
				panic("bench: expected lineage hit")
			}
		}
	}))

	// Fair-share scheduler: the per-job submit/dispatch/complete price
	// the serving tier charges on top of the run itself. Four tenants,
	// 1024 one-vCPU jobs, drained in synchronous rounds.
	out = append(out, measure("sched_submit_dispatch_1024", 1024, window, func() {
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
	out = append(out, measure("shard_plan_spill", 1024, window, func() {
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
	out = append(out, measure("shard_split_owner_1k", 1024, window, func() {
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

	// The DICE parse path on one generated case: the annotation file both
	// paradigms parse, and the rendering that feeds it.
	ann := datagen.GenerateClinicalCases(1, 1)[0].Ann
	annText := brat.Render(ann)
	out = append(out, measure("brat_parse_case", 1, window, func() {
		if _, err := brat.ParseString(annText); err != nil {
			panic(err)
		}
	}))
	out = append(out, measure("brat_render_case", 1, window, func() {
		if brat.Render(ann) != annText {
			panic("bench: render is not stable")
		}
	}))

	// The script paradigm's text models: one WEF tweet, one WEF checkpoint.
	tweet := datagen.GenerateTweets(1, 1)[0].Text
	out = append(out, measure("tokenize_tweet", 1, window, func() {
		if len(textproc.Tokenize(tweet)) == 0 {
			panic("bench: tweet has no tokens")
		}
	}))
	out = append(out, measure("textclf_pretrained_4096x24", 1, window, func() {
		if _, err := textclf.Pretrained("bert-link", 4096, 24, 12); err != nil {
			panic(err)
		}
	}))
	return out
}

// variant is one side of a macro pair: the experiment name its row
// carries and the configuration each of its runs gets (a function,
// because a telemetry recorder is good for one run).
type variant struct {
	experiment string
	cfg        func() core.RunConfig
}

// pair is one registered task at one size, run as a workflow under two
// configurations whose difference is the thing being priced. A b with
// no experiment name has no row of its own: it is a with a recorder
// attached, folded into a's row as WallMSTelemetry and OverheadPct.
type pair struct {
	task string
	size int
	a, b variant
}

// pairs is the macro table, in report order.
func pairs() []pair {
	fixed := func(cfg core.RunConfig) func() core.RunConfig {
		return func() core.RunConfig { return cfg }
	}
	plain := fixed(core.RunConfig{})
	recorded := func() core.RunConfig { return core.RunConfig{Telemetry: telemetry.New()} }

	// E4 (DICE) and E6 (KGE) size sweeps, telemetry off and on.
	var out []pair
	for _, n := range []int{10, 50, 200} {
		out = append(out, pair{"dice", n, variant{"fig13a", plain}, variant{cfg: recorded}})
	}
	for _, n := range []int{340, 3400} {
		out = append(out, pair{"kge", n, variant{"fig13c", plain}, variant{cfg: recorded}})
	}

	// The iterate workload's two extremes: no store attached, and a store
	// where every operator hits (b's warm-up run is what populates it), so
	// the engine's work is provenance resolution plus replay of cached
	// tables. Bounds what the artifact store costs or saves in host time.
	store, err := lineage.NewStore(nil, 0)
	if err != nil {
		panic(err)
	}
	out = append(out, pair{"dice", 50,
		variant{"iterate-cold", plain},
		variant{"iterate-warm", fixed(core.RunConfig{Lineage: store})}})

	// The distributed tier (E14): the single-cluster path at 8 workers
	// against a 4-node sharded topology at the lifted 32-worker width.
	// The golden shard tests pin both outputs bit-identical. The wall
	// delta is mostly the host price of the 8 -> 32 worker width (more
	// batch jobs to lower and schedule, more queues), not of exchange
	// pricing and spill planning: the same 32 workers on one node cost
	// the host about as much as on four.
	out = append(out, pair{"dice", 2000,
		variant{"scale-n1", fixed(core.RunConfig{Workers: 8})},
		variant{"scale-n4", fixed(core.RunConfig{Workers: 32, Nodes: 4})}})

	// The cost-based plan optimizer (E15 asserts both outputs
	// bit-identical) at the hand-set 8-worker width the tasks ship with:
	// the SimSeconds delta is the scheduling win of the rewrites, the
	// WallMS delta the host price of running the passes.
	optOff, optOn := fixed(core.RunConfig{Workers: 8}), fixed(core.RunConfig{Workers: 8, Optimize: true})
	return append(out,
		pair{"dice", 200, variant{"opt-off", optOff}, variant{"opt-on", optOn}},
		pair{"gotta", 16, variant{"opt-off", optOff}, variant{"opt-on", optOn}},
	)
}

// macros times every pair the same way: both sides run once untimed
// (first runs pay page faults and lazy init), then reps rounds of a then
// b, each run after a forced collection — the regime measure gives
// every micro — keeping each side's fastest. Interleaving makes drift in
// machine load hit both sides of a round equally, which is also why a
// folded pair's overhead is the median of the per-round ratios and not
// the ratio of two independent minima.
func macros(seed uint64, reps int) ([]Macro, error) {
	var out []Macro
	for _, p := range pairs() {
		task, err := core.NewTask(p.task, p.size, seed)
		if err != nil {
			return nil, err
		}
		sides := [2]variant{p.a, p.b}
		var wall, best, sim [2]float64
		round := func() error {
			for i, v := range sides {
				cfg := v.cfg()
				runtime.GC()
				start := telemetry.WallClock()
				res, err := task.Run(core.Workflow, cfg)
				if err != nil {
					return fmt.Errorf("bench: %s/%s/%d side %c: %w", p.task, p.a.experiment, p.size, 'a'+i, err)
				}
				wall[i], sim[i] = float64(telemetry.WallSince(start).Microseconds())/1000, res.SimSeconds
			}
			return nil
		}
		if err := round(); err != nil {
			return nil, err
		}
		ratios := make([]float64, 0, reps)
		for r := 0; r < reps; r++ {
			if err := round(); err != nil {
				return nil, err
			}
			for i, w := range wall {
				if r == 0 || w < best[i] {
					best[i] = w
				}
			}
			if wall[0] > 0 {
				ratios = append(ratios, wall[1]/wall[0])
			}
		}
		a := Macro{Task: task.Name(), Experiment: p.a.experiment, Size: p.size, WallMS: best[0], SimSeconds: sim[0]}
		if p.b.experiment != "" {
			out = append(out, a, Macro{Task: task.Name(), Experiment: p.b.experiment, Size: p.size, WallMS: best[1], SimSeconds: sim[1]})
			continue
		}
		a.WallMSTelemetry = best[1]
		if len(ratios) > 0 {
			slices.Sort(ratios)
			a.OverheadPct = 100 * (ratios[len(ratios)/2] - 1)
		}
		out = append(out, a)
	}
	return out, nil
}

// Run executes the full harness: reps timed rounds per macro pair and
// window-long timing windows per micro. `repro bench` passes 7 and 60ms;
// a caller that reads only the counts (allocs_per_op, sim_seconds)
// passes 1 and 1ms, because counts need no timing window.
func Run(seed uint64, reps int, window time.Duration) (*Report, error) {
	mac, err := macros(seed, reps)
	if err != nil {
		return nil, err
	}
	env := Env{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GOGC:       os.Getenv("GOGC"),
	}
	return &Report{GoVersion: env.GoVersion, GOMAXPROCS: env.GOMAXPROCS, Env: env, Micro: micros(window), Macro: mac}, nil
}
