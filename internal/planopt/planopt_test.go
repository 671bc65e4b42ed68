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

// joinTables returns 40 users (uid, name) and 2,000 orders (oid, uid,
// note), one in five of them for a uid no user has.
func joinTables() (users, orders *relation.Table) {
	users = relation.NewTable(relation.MustSchema(
		relation.Field{Name: "uid", Type: relation.Int},
		relation.Field{Name: "name", Type: relation.String},
	))
	for i := 0; i < 40; i++ {
		users.AppendUnchecked(relation.Tuple{relation.IntValue(int64(i)), relation.StringValue(fmt.Sprintf("user-%d", i))})
	}
	orders = relation.NewTable(relation.MustSchema(
		relation.Field{Name: "oid", Type: relation.Int},
		relation.Field{Name: "uid", Type: relation.Int},
		relation.Field{Name: "note", Type: relation.String},
	))
	for i := 0; i < 2000; i++ {
		orders.AppendUnchecked(relation.Tuple{relation.IntValue(int64(i)), relation.IntValue(int64(i % 50)), relation.StringValue(fmt.Sprintf("order-%d-padding-padding", i))})
	}
	return users, orders
}

func joinWorkflow(par int, part func(key string) dataflow.Partitioning) func() *dataflow.Workflow {
	return func() *dataflow.Workflow {
		users, orders := joinTables()
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

// A swapped join that feeds a filter judges the filter's rows in their
// logical column order. With the filter in another language the join
// evaluates it across the edge; in the same language fusion puts both
// in one node. Either way the sink, and the traffic into the filter,
// match the unoptimized plan's.
func TestJoinSwapFeedsFilterUnchanged(t *testing.T) {
	for _, lang := range []cost.Language{cost.Scala, cost.Python} {
		build := func() *dataflow.Workflow {
			users, orders := joinTables()
			w := dataflow.New("join-filter")
			u := w.Source("users", users)
			o := w.Source("orders", orders)
			// Mis-shaped, so OPT003 swaps it: the big orders table is the
			// build side. Rows are (uid, name, oid, note).
			j := w.Op(dataflow.NewHashJoin("join", cost.Python, "uid", "uid", relation.Inner))
			f := w.Op(dataflow.NewFilter("keep", lang, func(r relation.Tuple) bool {
				return r[2].Int()%4 == 0 || strings.HasSuffix(r[1].Str(), "7")
			}))
			snk := w.Sink("out")
			w.Connect(o, j, 0, dataflow.RoundRobin())
			w.Connect(u, j, 1, dataflow.RoundRobin())
			w.Connect(j, f, 0, dataflow.RoundRobin())
			w.Connect(f, snk, 0, dataflow.RoundRobin())
			return w
		}
		resPlain, resOpt, rep := runBoth(t, build, Options{})
		if !hasApplied(rep, RuleJoinSwap) {
			t.Fatalf("%s filter: no OPT003 applied; diags: %v", lang, rep.Diags)
		}
		if !resOpt.Tables["out"].EqualUnordered(resPlain.Tables["out"]) {
			t.Fatalf("%s filter: the swapped join changed the filtered rows", lang)
		}
		node := func(res *dataflow.Result, name string) *dataflow.NodeTrace {
			for i := range res.Trace.Nodes {
				if res.Trace.Nodes[i].Name == name {
					return &res.Trace.Nodes[i]
				}
			}
			return nil
		}
		plainFilter := node(resPlain, "keep")
		if lang == cost.Python {
			fused := node(resOpt, "join+keep")
			if fused == nil {
				t.Fatalf("%s filter: join and filter were not fused; diags: %v", lang, rep.Diags)
			}
			if fused.OutTuples != plainFilter.OutTuples {
				t.Fatalf("fused join+filter emitted %d rows, the filter %d", fused.OutTuples, plainFilter.OutTuples)
			}
			continue
		}
		optFilter := node(resOpt, "keep")
		if optFilter == nil || optFilter.InTuples != plainFilter.InTuples || optFilter.OutTuples != plainFilter.OutTuples {
			t.Fatalf("%s filter: optimized filter node %+v, unoptimized %+v", lang, optFilter, plainFilter)
		}
		into := func(res *dataflow.Result, id dataflow.NodeID) (tuples, bytes int64) {
			for _, e := range res.Trace.Edges {
				if e.To == id {
					return e.Tuples, e.Bytes
				}
			}
			return -1, -1
		}
		pt, pb := into(resPlain, plainFilter.ID)
		ot, ob := into(resOpt, optFilter.ID)
		if pt != ot || pb != ob {
			t.Fatalf("%s filter: %d rows / %d B into the optimized filter, %d / %d unoptimized", lang, ot, ob, pt, pb)
		}
	}
}

func TestExchangeBroadcastsSmallBuild(t *testing.T) {
	hash := func(key string) dataflow.Partitioning { return dataflow.HashPartition(key) }
	topo := shard.Of(4)
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
	for id := range dataflow.NodeID(w.NumNodes()) {
		if w.NameOf(id) == "keep" && w.ParallelismOf(id) != 8 {
			t.Fatalf("filter parallelism = %d, want 8", w.ParallelismOf(id))
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
	if p := w.ParallelismOf(f); p != 1 {
		t.Fatalf("sequential operator raised to %d workers", p)
	}
}

// collectOp is a stateless custom operator whose one port blocks; it
// never executes.
type collectOp struct{}

func (collectOp) Desc() dataflow.Desc {
	return dataflow.Desc{Name: "collect", Language: cost.Python, Ports: 1, BlockingPorts: []bool{true}, Stateless: true}
}
func (collectOp) OutputSchema(in []*relation.Schema) (*relation.Schema, error) { return in[0], nil }
func (collectOp) NewInstance(dataflow.ExecCtx, []*relation.Schema) (dataflow.Instance, error) {
	return nil, nil
}

// TestParallelismRejectsRoundRobinBlockingPort pins OPT006's one
// rejection: a stateless operator is widened only when checkpoint
// replay could re-deal its blocking port's input the same way, which a
// round-robin feed cannot. No task plan reaches this case.
func TestParallelismRejectsRoundRobinBlockingPort(t *testing.T) {
	w := dataflow.New("collect")
	src := w.Source("src", intTable(100))
	c := w.Op(collectOp{}, dataflow.WithParallelism(2))
	snk := w.Sink("out")
	w.Connect(src, c, 0, dataflow.RoundRobin())
	w.Connect(c, snk, 0, dataflow.RoundRobin())
	if err := w.Validate(); err != nil {
		t.Fatalf("an advisory finding stopped the plan: %v", err)
	}
	r := &Report{}
	if err := passParallelism(w, Options{MaxParallelism: 8}, r); err != nil {
		t.Fatal(err)
	}
	if got := w.ParallelismOf(c); got != 2 {
		t.Fatalf("collect widened to %d workers over a round-robin blocking port", got)
	}
	if r.Applied != 0 || r.Rejected != 1 || !hasRejected(r, RuleParallelism) {
		t.Fatalf("want exactly one OPT006 rejection; diags: %v", r.Diags)
	}
	if d := r.Diags[0]; d.Node != "collect" || !strings.Contains(d.Msg, "blocking port 0 is round-robin") {
		t.Fatalf("rejection = %v", d)
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
