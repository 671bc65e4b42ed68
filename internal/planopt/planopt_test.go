package planopt

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/dataflow"
	"repro/internal/relation"
	"repro/internal/shard"
)

func intTable(n int) *relation.Table {
	s := relation.MustSchema(
		relation.Field{Name: "id", Type: relation.Int},
		relation.Field{Name: "v", Type: relation.Int},
	)
	t := relation.NewTable(s)
	for i := 0; i < n; i++ {
		t.AppendUnchecked(relation.Tuple{relation.IntValue(int64(i)), relation.IntValue(int64(i % 100))})
	}
	return t
}

// runBoth builds the workflow twice, optimizes one copy, runs both on
// the same topology and returns (plainResult, optResult, report).
func runBoth(t *testing.T, build func() *dataflow.Workflow, opt Options) (*dataflow.Result, *dataflow.Result, *Report) {
	t.Helper()
	plain := build()
	optimized := build()
	rep, err := Optimize(optimized, opt)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	cfg := dataflow.Config{Shard: opt.Topology}
	resPlain, err := plain.Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("plain run: %v", err)
	}
	resOpt, err := optimized.Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("optimized run: %v", err)
	}
	return resPlain, resOpt, rep
}

func hasApplied(rep *Report, rule string) bool {
	for _, d := range rep.Diags {
		if d.Rule == rule && strings.HasPrefix(d.Msg, "applied: ") {
			return true
		}
	}
	return false
}

func hasRejected(rep *Report, rule string) bool {
	for _, d := range rep.Diags {
		if d.Rule == rule && strings.HasPrefix(d.Msg, "rejected: ") {
			return true
		}
	}
	return false
}

func TestEstimatorFilterSelectivity(t *testing.T) {
	w := dataflow.New("est")
	src := w.Source("src", intTable(1000))
	f := w.Op(dataflow.NewFilter("keep-low", cost.Python, func(r relation.Tuple) bool {
		return r[1].Int() < 10 // 10% of v values
	}))
	snk := w.Sink("out")
	w.Connect(src, f, 0, dataflow.RoundRobin())
	w.Connect(f, snk, 0, dataflow.RoundRobin())

	est, err := inferEstimates(w, 512)
	if err != nil {
		t.Fatal(err)
	}
	fe := est[f]
	if fe == nil || fe.assumed {
		t.Fatalf("filter estimate missing or assumed: %+v", fe)
	}
	if fe.rows < 50 || fe.rows > 200 {
		t.Fatalf("filter estimate %f rows, want ~100", fe.rows)
	}
	if se := est[src]; se.rows != 1000 {
		t.Fatalf("source estimate %f rows, want exactly 1000", se.rows)
	}
}

func TestFilterOrderReordersSelectiveFirst(t *testing.T) {
	build := func() *dataflow.Workflow {
		w := dataflow.New("filters")
		src := w.Source("src", intTable(2000))
		wide := w.Op(dataflow.NewFilter("wide", cost.Python, func(r relation.Tuple) bool {
			return r[1].Int() < 90 // keeps 90%
		}))
		narrow := w.Op(dataflow.NewFilter("narrow", cost.Python, func(r relation.Tuple) bool {
			return r[1].Int()%10 == 0 // keeps 10%
		}))
		snk := w.Sink("out")
		w.Connect(src, wide, 0, dataflow.RoundRobin())
		w.Connect(wide, narrow, 0, dataflow.RoundRobin())
		w.Connect(narrow, snk, 0, dataflow.RoundRobin())
		return w
	}
	resPlain, resOpt, rep := runBoth(t, build, Options{})
	if !hasApplied(rep, RuleFilterOrder) {
		t.Fatalf("no OPT001 applied; diags: %v", rep.Diags)
	}
	if !resOpt.Tables["out"].Equal(resPlain.Tables["out"]) {
		t.Fatal("filter reorder changed the output")
	}
}

func TestFilterOrderKeepsOptimalOrder(t *testing.T) {
	w := dataflow.New("filters-ok")
	src := w.Source("src", intTable(2000))
	narrow := w.Op(dataflow.NewFilter("narrow", cost.Python, func(r relation.Tuple) bool {
		return r[1].Int()%10 == 0
	}))
	wide := w.Op(dataflow.NewFilter("wide", cost.Python, func(r relation.Tuple) bool {
		return r[1].Int() < 90
	}))
	snk := w.Sink("out")
	w.Connect(src, narrow, 0, dataflow.RoundRobin())
	w.Connect(narrow, wide, 0, dataflow.RoundRobin())
	w.Connect(wide, snk, 0, dataflow.RoundRobin())

	rep, err := Optimize(w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if hasApplied(rep, RuleFilterOrder) {
		t.Fatalf("OPT001 applied to an already-optimal chain; diags: %v", rep.Diags)
	}
	if !hasRejected(rep, RuleFilterOrder) {
		t.Fatalf("want an OPT001 rejection explaining the kept order; diags: %v", rep.Diags)
	}
}

func TestProjectPushBelowSort(t *testing.T) {
	build := func() *dataflow.Workflow {
		w := dataflow.New("sortproj")
		src := w.Source("src", intTable(500))
		srt := w.Op(dataflow.NewSort("sort", cost.Python, "v"))
		prj := w.Op(dataflow.NewProject("proj", cost.Python, "v"))
		snk := w.Sink("out")
		w.Connect(src, srt, 0, dataflow.RoundRobin())
		w.Connect(srt, prj, 0, dataflow.RoundRobin())
		w.Connect(prj, snk, 0, dataflow.RoundRobin())
		return w
	}
	resPlain, resOpt, rep := runBoth(t, build, Options{})
	if !hasApplied(rep, RuleProjectPush) {
		t.Fatalf("no OPT002 applied; diags: %v", rep.Diags)
	}
	if !resOpt.Tables["out"].Equal(resPlain.Tables["out"]) {
		t.Fatal("projection pushdown changed the output")
	}
}

func TestProjectPushRejectedWhenSortKeyDropped(t *testing.T) {
	w := dataflow.New("sortproj-bad")
	src := w.Source("src", intTable(500))
	srt := w.Op(dataflow.NewSort("sort", cost.Python, "v"))
	prj := w.Op(dataflow.NewProject("proj", cost.Python, "id")) // drops the sort key
	snk := w.Sink("out")
	w.Connect(src, srt, 0, dataflow.RoundRobin())
	w.Connect(srt, prj, 0, dataflow.RoundRobin())
	w.Connect(prj, snk, 0, dataflow.RoundRobin())

	rep, err := Optimize(w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if hasApplied(rep, RuleProjectPush) {
		t.Fatal("OPT002 applied although the projection drops the sort key")
	}
	if !hasRejected(rep, RuleProjectPush) {
		t.Fatalf("want an OPT002 rejection; diags: %v", rep.Diags)
	}
}

func joinWorkflow(par int, part func(key string) dataflow.Partitioning) func() *dataflow.Workflow {
	return func() *dataflow.Workflow {
		us := relation.MustSchema(
			relation.Field{Name: "uid", Type: relation.Int},
			relation.Field{Name: "name", Type: relation.String},
		)
		users := relation.NewTable(us)
		for i := 0; i < 40; i++ {
			users.AppendUnchecked(relation.Tuple{relation.IntValue(int64(i)), relation.StringValue(fmt.Sprintf("user-%d", i))})
		}
		os := relation.MustSchema(
			relation.Field{Name: "oid", Type: relation.Int},
			relation.Field{Name: "uid", Type: relation.Int},
			relation.Field{Name: "note", Type: relation.String},
		)
		orders := relation.NewTable(os)
		for i := 0; i < 2000; i++ {
			orders.AppendUnchecked(relation.Tuple{relation.IntValue(int64(i)), relation.IntValue(int64(i % 50)), relation.StringValue(fmt.Sprintf("order-%d-padding-padding", i))})
		}
		w := dataflow.New("join")
		u := w.Source("users", users)
		o := w.Source("orders", orders)
		var opts []dataflow.NodeOpt
		if par > 1 {
			opts = append(opts, dataflow.WithParallelism(par))
		}
		// Deliberately mis-shaped: the big orders table is the build side.
		j := w.Op(dataflow.NewHashJoin("join", cost.Python, "uid", "uid", relation.Inner), opts...)
		snk := w.Sink("out")
		w.Connect(o, j, 0, part("uid"))
		w.Connect(u, j, 1, part("uid"))
		w.Connect(j, snk, 0, dataflow.RoundRobin())
		return w
	}
}

func TestJoinSwapBuildsSmallerSide(t *testing.T) {
	rr := func(string) dataflow.Partitioning { return dataflow.RoundRobin() }
	build := joinWorkflow(1, rr)
	resPlain, resOpt, rep := runBoth(t, build, Options{})
	if !hasApplied(rep, RuleJoinSwap) {
		t.Fatalf("no OPT003 applied; diags: %v", rep.Diags)
	}
	po, pp := resPlain.Tables["out"], resOpt.Tables["out"]
	if !po.Schema().Equal(pp.Schema()) {
		t.Fatalf("join swap changed the output schema: %v vs %v", po.Schema(), pp.Schema())
	}
	if !po.EqualUnordered(pp) {
		t.Fatal("join swap changed the output rows")
	}
}

func TestExchangeBroadcastsSmallBuild(t *testing.T) {
	hash := func(key string) dataflow.Partitioning { return dataflow.HashPartition(key) }
	topo, err := shard.Topology{Nodes: 4}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	// Keep hand-set parallelism: no OPT006 interference wanted here.
	build := joinWorkflow(8, hash)

	// Swap pass runs first and flips build/probe so the small side is
	// built; the exchange pass should then broadcast the small build.
	resPlain, resOpt, rep := runBoth(t, build, Options{Topology: topo, MaxParallelism: 8})
	if !hasApplied(rep, RuleExchange) {
		t.Fatalf("no OPT004 applied; diags: %v", rep.Diags)
	}
	if !resPlain.Tables["out"].EqualUnordered(resOpt.Tables["out"]) {
		t.Fatal("exchange choice changed the output rows")
	}
	if resOpt.SimSeconds >= resPlain.SimSeconds {
		t.Fatalf("broadcast exchange did not help: %.3fs opt vs %.3fs plain", resOpt.SimSeconds, resPlain.SimSeconds)
	}
}

func TestExchangeSilentOffSharded(t *testing.T) {
	hash := func(key string) dataflow.Partitioning { return dataflow.HashPartition(key) }
	w := joinWorkflow(4, hash)()
	rep, err := Optimize(w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range rep.Diags {
		if d.Rule == RuleExchange {
			t.Fatalf("OPT004 diag on a single-node topology: %v", d)
		}
	}
}

func TestParallelismRaisedToCapacity(t *testing.T) {
	build := func() *dataflow.Workflow {
		w := dataflow.New("par")
		src := w.Source("src", intTable(4000))
		f := w.Op(dataflow.NewFilter("keep", cost.Python, func(r relation.Tuple) bool {
			return r[1].Int()%2 == 0
		}), dataflow.WithParallelism(2))
		snk := w.Sink("out")
		w.Connect(src, f, 0, dataflow.RoundRobin())
		w.Connect(f, snk, 0, dataflow.RoundRobin())
		return w
	}
	resPlain, resOpt, rep := runBoth(t, build, Options{MaxParallelism: 8})
	if !hasApplied(rep, RuleParallelism) {
		t.Fatalf("no OPT006 applied; diags: %v", rep.Diags)
	}
	if !resPlain.Tables["out"].EqualUnordered(resOpt.Tables["out"]) {
		t.Fatal("parallelism raise changed the output rows")
	}
	w := build()
	if _, err := Optimize(w, Options{MaxParallelism: 8}); err != nil {
		t.Fatal(err)
	}
	for _, e := range w.Edges() {
		if w.NameOf(e.To) == "keep" && w.ParallelismOf(e.To) != 8 {
			t.Fatalf("filter parallelism = %d, want 8", w.ParallelismOf(e.To))
		}
	}
}

func TestParallelismNeverTouchesSequentialOperators(t *testing.T) {
	w := dataflow.New("seq")
	src := w.Source("src", intTable(100))
	f := w.Op(dataflow.NewFilter("keep", cost.Python, func(r relation.Tuple) bool { return true }))
	snk := w.Sink("out")
	w.Connect(src, f, 0, dataflow.RoundRobin())
	w.Connect(f, snk, 0, dataflow.RoundRobin())
	if _, err := Optimize(w, Options{MaxParallelism: 16}); err != nil {
		t.Fatal(err)
	}
	for _, e := range w.Edges() {
		if w.NameOf(e.To) == "keep" && w.ParallelismOf(e.To) != 1 {
			t.Fatalf("sequential operator raised to %d workers", w.ParallelismOf(e.To))
		}
	}
}

func TestBatchSizedToConsumerParallelism(t *testing.T) {
	build := func() *dataflow.Workflow {
		w := dataflow.New("batch")
		src := w.Source("src", intTable(30000))
		// Hand-set parallelism equal to capacity so only OPT007 fires:
		// 32 workers want more than the ~96 auto batches in flight.
		f := w.Op(dataflow.NewFilter("keep", cost.Python, func(r relation.Tuple) bool {
			return r[1].Int()%2 == 0
		}), dataflow.WithParallelism(32))
		snk := w.Sink("out")
		w.Connect(src, f, 0, dataflow.RoundRobin())
		w.Connect(f, snk, 0, dataflow.RoundRobin())
		return w
	}
	resPlain, resOpt, rep := runBoth(t, build, Options{MaxParallelism: 32})
	if !hasApplied(rep, RuleBatch) {
		t.Fatalf("no OPT007 applied; diags: %v", rep.Diags)
	}
	if hasApplied(rep, RuleParallelism) {
		t.Fatalf("OPT006 fired; this test wants batch sizing alone: %v", rep.Diags)
	}
	if !resPlain.Tables["out"].EqualUnordered(resOpt.Tables["out"]) {
		t.Fatal("batch sizing changed the output rows")
	}
	if resOpt.SimSeconds > resPlain.SimSeconds {
		t.Fatalf("batch sizing hurt a wide consumer: %.3fs opt vs %.3fs plain",
			resOpt.SimSeconds, resPlain.SimSeconds)
	}
}

func TestBatchPassDisabledWhenPinned(t *testing.T) {
	w := dataflow.New("pinned")
	src := w.Source("src", intTable(3000), dataflow.WithBatchSize(3000))
	snk := w.Sink("out")
	w.Connect(src, snk, 0, dataflow.RoundRobin())
	rep, err := Optimize(w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range rep.Diags {
		if d.Rule == RuleBatch {
			t.Fatalf("OPT007 diag despite a pinned source batch: %v", d)
		}
	}
	if got := w.BatchSizeOf(src); got != 3000 {
		t.Fatalf("pinned batch rewritten to %d", got)
	}
}

func TestFusionCollapsesStatelessChain(t *testing.T) {
	outSchema := relation.MustSchema(relation.Field{Name: "double", Type: relation.Int})
	build := func() *dataflow.Workflow {
		w := dataflow.New("fuse")
		src := w.Source("src", intTable(600))
		f := w.Op(dataflow.NewFilter("keep", cost.Python, func(r relation.Tuple) bool {
			return r[1].Int()%3 == 0
		}))
		m := w.Op(dataflow.NewMap("double", cost.Python, outSchema, func(r relation.Tuple, out *dataflow.Rows) error {
			out.Emit(relation.IntValue(r[1].Int() * 2))
			return nil
		}))
		snk := w.Sink("out")
		w.Connect(src, f, 0, dataflow.RoundRobin())
		w.Connect(f, m, 0, dataflow.RoundRobin())
		w.Connect(m, snk, 0, dataflow.RoundRobin())
		return w
	}
	resPlain, resOpt, rep := runBoth(t, build, Options{})
	if !hasApplied(rep, RuleFusion) {
		t.Fatalf("no OPT005 applied; diags: %v", rep.Diags)
	}
	if !resPlain.Tables["out"].Equal(resOpt.Tables["out"]) {
		t.Fatal("fusion changed the output")
	}
	w := build()
	before := w.NumOperators()
	if _, err := Optimize(w, Options{}); err != nil {
		t.Fatal(err)
	}
	if got := w.NumOperators(); got != before-1 {
		t.Fatalf("operators after fusion = %d, want %d", got, before-1)
	}
}

func TestFusionRejectsCrossLanguageEdge(t *testing.T) {
	w := dataflow.New("xlang")
	src := w.Source("src", intTable(200))
	f := w.Op(dataflow.NewFilter("keep", cost.Python, func(r relation.Tuple) bool { return true }))
	p := w.Op(dataflow.NewProject("narrow", cost.Java, "v"))
	snk := w.Sink("out")
	w.Connect(src, f, 0, dataflow.RoundRobin())
	w.Connect(f, p, 0, dataflow.RoundRobin())
	w.Connect(p, snk, 0, dataflow.RoundRobin())
	rep, err := Optimize(w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if hasApplied(rep, RuleFusion) {
		t.Fatal("OPT005 fused across languages")
	}
	if !hasRejected(rep, RuleFusion) {
		t.Fatalf("want an OPT005 rejection naming the language mismatch; diags: %v", rep.Diags)
	}
}

func TestReportDeterministicAndAttributed(t *testing.T) {
	rr := func(string) dataflow.Partitioning { return dataflow.RoundRobin() }
	build := joinWorkflow(1, rr)
	rep1, err := Optimize(build(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := Optimize(build(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep1.Diags) != len(rep2.Diags) {
		t.Fatalf("diag count differs across identical runs: %d vs %d", len(rep1.Diags), len(rep2.Diags))
	}
	for i := range rep1.Diags {
		if rep1.Diags[i] != rep2.Diags[i] {
			t.Fatalf("diag %d differs: %v vs %v", i, rep1.Diags[i], rep2.Diags[i])
		}
	}
	for i, d := range rep1.Diags {
		if d.Node == "" {
			t.Fatalf("diag %d has no node name: %v", i, d)
		}
		if !strings.HasPrefix(d.Rule, "OPT0") {
			t.Fatalf("diag %d rule %q outside the OPT0xx namespace", i, d.Rule)
		}
		if !strings.HasPrefix(d.Msg, "applied: ") && !strings.HasPrefix(d.Msg, "rejected: ") {
			t.Fatalf("diag %d msg %q has no verdict prefix", i, d.Msg)
		}
		if i > 0 {
			prev := rep1.Diags[i-1]
			if prev.Rule > d.Rule || (prev.Rule == d.Rule && prev.ID > d.ID) {
				t.Fatalf("diags not sorted at %d: %v before %v", i, prev, d)
			}
		}
	}
	if rep1.Applied+rep1.Rejected != len(rep1.Diags) {
		t.Fatalf("applied %d + rejected %d != %d diags", rep1.Applied, rep1.Rejected, len(rep1.Diags))
	}
}
