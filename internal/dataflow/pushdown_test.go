package dataflow

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/cost"
	"repro/internal/lineage"
	"repro/internal/relation"
)

// A join whose rows go round-robin to one filter judges them against
// the filter's predicate and builds only the survivors. These tests pin
// that the trace cannot tell: the join → filter edge, the filter's
// input count and its work read what they read when the join builds
// every row.

// pushdownWorkflow is users ⋈ orders → filter → sink at the given
// parallelism, the 300 orders streaming in batches of 10. Unswapped,
// orders probe the users table and the filter sees (oid, uid, name);
// swapped, the plan is written with orders as the build side, so the
// filter sees (uid, name, oid), and SwapJoinInputs — the rewrite the
// optimizer's OPT003 applies — makes orders the probe side again.
func pushdownWorkflow(t *testing.T, workers int, swapped bool, keep relation.Predicate) *Workflow {
	t.Helper()
	users, orders := joinInputs()
	w := New("pushdown")
	u := w.Source("users", users)
	o := w.Source("orders", orders, WithBatchSize(10))
	j := w.Op(NewHashJoin("join", cost.Python, "uid", "uid", relation.Inner), WithParallelism(workers))
	f := w.Op(NewFilter("keep", cost.Python, keep), WithParallelism(workers))
	snk := w.Sink("out")
	build, probe := u, o
	if swapped {
		build, probe = o, u
	}
	w.Connect(build, j, 0, HashPartition("uid"))
	w.Connect(probe, j, 1, HashPartition("uid"))
	w.Connect(j, f, 0, RoundRobin())
	w.Connect(f, snk, 0, RoundRobin())
	if swapped {
		if err := w.SwapJoinInputs(j); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

// pushdownKeep reads the oid at position oid of the row it is shown. It
// rejects every row of orders batches 0, 3, 6, …, keeps every row of
// batches 1, 4, 7, … and the even orders of the rest, and counts its
// calls in calls.
func pushdownKeep(oid int, calls *atomic.Int64) relation.Predicate {
	return func(r relation.Tuple) bool {
		calls.Add(1)
		switch id := r[oid].Int(); id / 10 % 3 {
		case 0:
			return false
		case 1:
			return true
		default:
			return id%2 == 0
		}
	}
}

// joinFilterTraffic computes, from relation.HashJoin alone, what the
// join → filter edge carries at the given parallelism: each orders
// batch is split among the join's workers by the hash of its uid, and
// each part that joins anything is one batch on the edge. work is the
// filter's port-0 work summed in batch order, as one worker charges it.
func joinFilterTraffic(t *testing.T, workers int) (want EdgeTrace, work cost.Work) {
	t.Helper()
	users, orders := joinInputs()
	for lo := 0; lo < orders.Len(); lo += 10 {
		parts := make([]*relation.Table, workers)
		for _, r := range orders.Rows()[lo:min(lo+10, orders.Len())] {
			p := int(r.KeyHash(1)) % workers
			if parts[p] == nil {
				parts[p] = relation.NewTable(orders.Schema())
			}
			parts[p].AppendUnchecked(r)
		}
		for _, part := range parts {
			if part == nil {
				continue
			}
			joined, err := relation.HashJoin(part, users, "uid", "uid", relation.Inner)
			if err != nil {
				t.Fatal(err)
			}
			if joined.Len() == 0 {
				continue
			}
			want.Batches++
			want.Tuples += int64(joined.Len())
			for _, r := range joined.Rows() {
				want.Bytes += relation.EncodedSize(r)
			}
			work = work.Add(DefaultFilterWork.Scale(float64(joined.Len())))
		}
	}
	full := joinOracle(t, users, orders)
	var fullBytes int64
	for _, r := range full.Rows() {
		fullBytes += relation.EncodedSize(r)
	}
	if want.Tuples != int64(full.Len()) || want.Bytes != fullBytes {
		t.Fatalf("batched join traffic %d rows / %d B, whole-table join %d / %d", want.Tuples, want.Bytes, full.Len(), fullBytes)
	}
	return want, work
}

// traceNode and traceEdge look up a node and an edge of a trace by
// node name.
func traceNode(t *testing.T, tr *Trace, name string) NodeTrace {
	t.Helper()
	for _, n := range tr.Nodes {
		if n.Name == name {
			return n
		}
	}
	t.Fatalf("trace has no node %q", name)
	return NodeTrace{}
}

func traceEdge(t *testing.T, tr *Trace, from, to string) EdgeTrace {
	t.Helper()
	f, g := traceNode(t, tr, from).ID, traceNode(t, tr, to).ID
	for _, e := range tr.Edges {
		if e.From == f && e.To == g {
			return e
		}
	}
	t.Fatalf("trace has no edge %s → %s", from, to)
	return EdgeTrace{}
}

func TestJoinEvaluatesItsFilter(t *testing.T) {
	users, orders := joinInputs()
	full := joinOracle(t, users, orders)
	for _, workers := range []int{1, 3} {
		want, work := joinFilterTraffic(t, workers)
		for _, swapped := range []bool{false, true} {
			name := fmt.Sprintf("workers=%d swapped=%v", workers, swapped)
			oid, joined := 0, full
			if swapped {
				var err error
				if joined, err = relation.HashJoin(users, orders, "uid", "uid", relation.Inner); err != nil {
					t.Fatal(err)
				}
				oid = 2
			}
			wantOut := relation.Filter(joined, pushdownKeep(oid, new(atomic.Int64)))
			run := func(cfg Config) (*Result, int64) {
				var calls atomic.Int64
				res, err := pushdownWorkflow(t, workers, swapped, pushdownKeep(oid, &calls)).Run(context.Background(), cfg)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				return res, calls.Load()
			}
			res, calls := run(Config{})
			if !res.Tables["out"].EqualUnordered(wantOut) {
				t.Fatalf("%s: %d sink rows differ from the filtered join's %d", name, res.Tables["out"].Len(), wantOut.Len())
			}
			// The join judges every joined row and the filter again the
			// ones it kept.
			if want := int64(full.Len() + wantOut.Len()); calls != want {
				t.Fatalf("%s: predicate ran %d times, want %d: the join did not evaluate it", name, calls, want)
			}
			got := traceEdge(t, res.Trace, "join", "keep")
			if got.Batches != want.Batches || got.Tuples != want.Tuples || got.Bytes != want.Bytes {
				t.Fatalf("%s: join → filter carried %d batches, %d rows, %d B; want %d, %d, %d",
					name, got.Batches, got.Tuples, got.Bytes, want.Batches, want.Tuples, want.Bytes)
			}
			filter := traceNode(t, res.Trace, "keep")
			if filter.InTuples != want.Tuples || filter.OutTuples != int64(wantOut.Len()) {
				t.Fatalf("%s: filter read %d rows and kept %d, want %d and %d", name, filter.InTuples, filter.OutTuples, want.Tuples, wantOut.Len())
			}
			if workers == 1 && filter.WorkByPort[0] != work {
				t.Fatalf("%s: filter work %+v, want %+v", name, filter.WorkByPort[0], work)
			}

			// Cold under a lineage store the join captures its rows for the
			// commit, so it builds them all and the filter alone judges.
			store, err := lineage.NewStore(cost.Default(), 0)
			if err != nil {
				t.Fatal(err)
			}
			cold, calls := run(Config{Lineage: store})
			if calls != int64(full.Len()) {
				t.Fatalf("%s: under lineage the predicate ran %d times, want %d", name, calls, full.Len())
			}
			if !cold.Tables["out"].EqualUnordered(res.Tables["out"]) {
				t.Fatalf("%s: the lineage run's sink differs", name)
			}
			for i, e := range res.Trace.Edges {
				if c := cold.Trace.Edges[i]; c != e {
					t.Fatalf("%s: edge %d is %+v, %+v when the join builds every row", name, i, e, c)
				}
			}
			for i, n := range res.Trace.Nodes {
				c := cold.Trace.Nodes[i]
				if c.InTuples != n.InTuples || c.OutTuples != n.OutTuples || c.EmittedBatches != n.EmittedBatches {
					t.Fatalf("%s: node %s counts %d/%d/%d, %d/%d/%d when the join builds every row", name, n.Name,
						n.InTuples, n.OutTuples, n.EmittedBatches, c.InTuples, c.OutTuples, c.EmittedBatches)
				}
				if workers == 1 && n.Name == "keep" && c.WorkByPort[0] != n.WorkByPort[0] {
					t.Fatalf("%s: filter work %+v, %+v when the join builds every row", name, n.WorkByPort[0], c.WorkByPort[0])
				}
			}
		}
	}
}

// workLog is an ExecCtx that records each AddWork call in order.
type workLog struct {
	work []cost.Work
	out  relation.Arena
}

func (l *workLog) AddWork(w cost.Work)  { l.work = append(l.work, w) }
func (l *workLog) Out() *relation.Arena { return &l.out }

// A fused join+filter binds the filter's predicate into the join and
// hands it the dropped count: batch for batch, it emits the rows and
// charges the work of the join and the filter run back to back. The
// build side comes as one batch, as three, and as more than the join
// instance's inline list holds.
func TestFusedJoinFilterMatchesUnfused(t *testing.T) {
	for _, parts := range []int{1, 3, 9} {
		t.Run(fmt.Sprintf("build in %d batches", parts), func(t *testing.T) {
			fusedJoinFilterMatchesUnfused(t, parts)
		})
	}
}

func fusedJoinFilterMatchesUnfused(t *testing.T, parts int) {
	users, orders := joinInputs()
	var calls atomic.Int64
	join := NewHashJoin("join", cost.Python, "uid", "uid", relation.Inner)
	filter := NewFilter("keep", cost.Python, pushdownKeep(0, &calls))
	in := []*relation.Schema{users.Schema(), orders.Schema()}
	fused := newInstance(t, &FusedOp{A: join, B: filter}, in...)
	if fused.(*fusedInstance).join == nil {
		t.Fatal("a fused join+filter did not bind the filter into the join")
	}
	joinInst, filterInst := newInstance(t, join, in...), newInstance(t, filter, join.plan.Schema())
	var fusedLog, plainLog workLog
	for _, c := range []struct {
		inst Instance
		log  *workLog
	}{{fused, &fusedLog}, {joinInst, &plainLog}} {
		rows := users.Rows()
		for p := 0; p < parts; p++ {
			if _, err := c.inst.Process(c.log, 0, rows[p*len(rows)/parts:(p+1)*len(rows)/parts]); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := c.inst.EndPort(c.log, 0); err != nil {
			t.Fatal(err)
		}
	}
	for lo := 0; lo < orders.Len(); lo += 10 {
		batch := orders.Rows()[lo : lo+10]
		got, err := fused.Process(&fusedLog, 1, batch)
		if err != nil {
			t.Fatal(err)
		}
		mid, err := joinInst.Process(&plainLog, 1, batch)
		if err != nil {
			t.Fatal(err)
		}
		var want []relation.Tuple
		if len(mid) > 0 {
			if want, err = filterInst.Process(&plainLog, 0, mid); err != nil {
				t.Fatal(err)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("batch at %d: fused kept %d rows, unfused %d", lo, len(got), len(want))
		}
		for i := range want {
			if !got[i].Equal(want[i]) {
				t.Fatalf("batch at %d, row %d: fused %v, unfused %v", lo, i, got[i], want[i])
			}
		}
	}
	if len(fusedLog.work) != len(plainLog.work) {
		t.Fatalf("fused charged work %d times, unfused %d", len(fusedLog.work), len(plainLog.work))
	}
	for i := range plainLog.work {
		if fusedLog.work[i] != plainLog.work[i] {
			t.Fatalf("charge %d: fused %+v, unfused %+v", i, fusedLog.work[i], plainLog.work[i])
		}
	}
}
