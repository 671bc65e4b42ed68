package dataflow

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/relation"
	"repro/internal/relation/reltest"
	"repro/internal/shard"
	"repro/internal/telemetry"
)

// sourceBatched adds a source that emits batches of n rows.
func sourceBatched(w *Workflow, name string, t *relation.Table, n int) NodeID {
	id := w.Source(name, t)
	if err := w.SetSourceBatch(id, n); err != nil {
		panic(err)
	}
	return id
}

func runSimple(t *testing.T, w *Workflow) *Result {
	t.Helper()
	res, err := w.Run(context.Background(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestExecFilterPipeline(t *testing.T) {
	in := intTable(500)
	w := New("filter")
	src := w.Source("src", in)
	f := w.Op(NewFilter("keep-even", cost.Python, func(r relation.Tuple) bool { return r[1].Int()%2 == 0 }))
	snk := w.Sink("out")
	w.Connect(src, f, 0, RoundRobin())
	w.Connect(f, snk, 0, RoundRobin())

	res := runSimple(t, w)
	want := relation.Filter(in, func(r relation.Tuple) bool { return r[1].Int()%2 == 0 })
	if !res.Tables["out"].Equal(want) {
		t.Fatalf("output mismatch: got %d rows, want %d", res.Tables["out"].Len(), want.Len())
	}
	if res.SimSeconds <= 0 {
		t.Fatalf("sim time = %v", res.SimSeconds)
	}
}

func TestExecProjectAndMap(t *testing.T) {
	in := intTable(100)
	outSchema := relation.MustSchema(relation.Field{Name: "double", Type: relation.Int})
	w := New("projmap")
	src := w.Source("src", in)
	p := w.Op(NewProject("proj", cost.Python, "v"))
	m := w.Op(NewMap("double", cost.Python, outSchema, func(r relation.Tuple, out *Rows) error {
		out.Emit(relation.IntValue(r[0].Int() * 2))
		return nil
	}))
	snk := w.Sink("out")
	w.Connect(src, p, 0, RoundRobin())
	w.Connect(p, m, 0, RoundRobin())
	w.Connect(m, snk, 0, RoundRobin())

	res := runSimple(t, w)
	out := res.Tables["out"]
	if out.Len() != 100 {
		t.Fatalf("rows = %d", out.Len())
	}
	for i, r := range out.Rows() {
		if r[0].Int() != int64((i%10)*2) {
			t.Fatalf("row %d = %v", i, r)
		}
	}
}

func joinInputs() (*relation.Table, *relation.Table) {
	us := relation.MustSchema(relation.Field{Name: "uid", Type: relation.Int}, relation.Field{Name: "name", Type: relation.String})
	users := relation.NewTable(us)
	for i := 0; i < 50; i++ {
		users.AppendUnchecked(relation.Tuple{relation.IntValue(int64(i)), relation.StringValue(fmt.Sprintf("user%d", i))})
	}
	os := relation.MustSchema(relation.Field{Name: "oid", Type: relation.Int}, relation.Field{Name: "uid", Type: relation.Int})
	orders := relation.NewTable(os)
	for i := 0; i < 300; i++ {
		orders.AppendUnchecked(relation.Tuple{relation.IntValue(int64(i)), relation.IntValue(int64(i % 60))}) // some dangling
	}
	return users, orders
}

func joinOracle(t *testing.T, users, orders *relation.Table) *relation.Table {
	t.Helper()
	want, err := relation.HashJoin(orders, users, "uid", "uid", relation.Inner)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

func TestExecHashJoin(t *testing.T) {
	users, orders := joinInputs()
	w := New("join")
	u := w.Source("users", users)
	o := w.Source("orders", orders)
	j := w.Op(NewHashJoin("join", cost.Python, "uid", "uid", relation.Inner))
	snk := w.Sink("out")
	w.Connect(u, j, 0, RoundRobin()) // build
	w.Connect(o, j, 1, RoundRobin()) // probe
	w.Connect(j, snk, 0, RoundRobin())

	res := runSimple(t, w)
	if !reltest.EqualUnordered(res.Tables["out"], joinOracle(t, users, orders)) {
		t.Fatal("join output mismatch")
	}
}

// TestExecParallelHashJoin sends each join worker its build side as
// one batch (the users in one), as a few (in three) and as more than
// the instance's inline list holds (row by row, about twelve a worker).
func TestExecParallelHashJoin(t *testing.T) {
	users, orders := joinInputs()
	for _, batch := range []int{users.Len(), 17, 1} {
		w := New("pjoin")
		u := sourceBatched(w, "users", users, batch)
		o := w.Source("orders", orders)
		j := w.Op(NewHashJoin("join", cost.Python, "uid", "uid", relation.Inner), WithParallelism(4))
		snk := w.Sink("out")
		w.Connect(u, j, 0, HashPartition("uid"))
		w.Connect(o, j, 1, HashPartition("uid"))
		w.Connect(j, snk, 0, RoundRobin())

		res := runSimple(t, w)
		if !reltest.EqualUnordered(res.Tables["out"], joinOracle(t, users, orders)) {
			t.Fatalf("build batches of %d rows: parallel join output mismatch", batch)
		}
	}
}

func TestExecBroadcastBuildJoin(t *testing.T) {
	users, orders := joinInputs()
	w := New("bjoin")
	u := w.Source("users", users)
	o := w.Source("orders", orders)
	j := w.Op(NewHashJoin("join", cost.Python, "uid", "uid", relation.Inner), WithParallelism(3))
	snk := w.Sink("out")
	w.Connect(u, j, 0, Broadcast())
	w.Connect(o, j, 1, HashPartition("uid"))
	w.Connect(j, snk, 0, RoundRobin())

	res := runSimple(t, w)
	if !reltest.EqualUnordered(res.Tables["out"], joinOracle(t, users, orders)) {
		t.Fatal("broadcast-build join output mismatch")
	}
}

func TestExecParallelGroupBy(t *testing.T) {
	in := intTable(1000)
	w := New("group")
	src := w.Source("src", in)
	g := w.Op(NewGroupBy("g", cost.Python, []string{"v"}, []relation.Aggregate{{Func: relation.Count, As: "n"}}), WithParallelism(4))
	snk := w.Sink("out")
	w.Connect(src, g, 0, HashPartition("v"))
	w.Connect(g, snk, 0, RoundRobin())

	res := runSimple(t, w)
	want, err := relation.GroupBy(in, []string{"v"}, []relation.Aggregate{{Func: relation.Count, As: "n"}})
	if err != nil {
		t.Fatal(err)
	}
	if !reltest.EqualUnordered(res.Tables["out"], want) {
		t.Fatal("group-by output mismatch")
	}
}

func TestExecSort(t *testing.T) {
	in := intTable(200)
	w := New("sort")
	src := w.Source("src", in)
	s := w.Op(NewSort("sort", cost.Python, "v", "id"))
	snk := w.Sink("out")
	w.Connect(src, s, 0, RoundRobin())
	w.Connect(s, snk, 0, RoundRobin())

	res := runSimple(t, w)
	out := res.Tables["out"]
	if out.Len() != 200 {
		t.Fatalf("rows = %d", out.Len())
	}
	for i := 1; i < out.Len(); i++ {
		a, b := out.Row(i-1), out.Row(i)
		if a[1].Int() > b[1].Int() || (a[1].Int() == b[1].Int() && a[0].Int() > b[0].Int()) {
			t.Fatalf("rows %d,%d out of order: %v %v", i-1, i, a, b)
		}
	}
}

func TestExecLimit(t *testing.T) {
	in := intTable(500)
	w := New("limit")
	src := w.Source("src", in)
	l := w.Op(NewLimit("limit", cost.Python, 42))
	snk := w.Sink("out")
	w.Connect(src, l, 0, RoundRobin())
	w.Connect(l, snk, 0, RoundRobin())
	res := runSimple(t, w)
	if res.Tables["out"].Len() != 42 {
		t.Fatalf("limit rows = %d", res.Tables["out"].Len())
	}
}

func TestExecOperatorErrorAttribution(t *testing.T) {
	in := intTable(100)
	w := New("err")
	src := w.Source("src", in)
	m := w.Op(NewMap("exploder", cost.Python, in.Schema(), func(r relation.Tuple, out *Rows) error {
		if r[0].Int() == 57 {
			return errors.New("synthetic failure")
		}
		out.Emit(r...)
		return nil
	}))
	snk := w.Sink("out")
	w.Connect(src, m, 0, RoundRobin())
	w.Connect(m, snk, 0, RoundRobin())

	_, err := w.Run(context.Background(), Config{})
	if err == nil {
		t.Fatal("expected error")
	}
	var opErr *OpError
	if !errors.As(err, &opErr) {
		t.Fatalf("error type %T: %v", err, err)
	}
	if opErr.Op != "exploder" {
		t.Fatalf("error attributed to %q", opErr.Op)
	}
}

// setupFailOp is a pass-through filter whose first NewInstance call
// fails with err.
type setupFailOp struct {
	*FilterOp
	err   error
	calls atomic.Int64
}

func (o *setupFailOp) NewInstance(ec ExecCtx, in []*relation.Schema) (Instance, error) {
	if o.calls.Add(1) == 1 {
		return nil, o.err
	}
	return o.FilterOp.NewInstance(ec, in)
}

// A worker whose NewInstance fails fails the run before it takes any
// input: the run returns, with an OpError that names the operator and
// the worker, has no port, and wraps the cause, and the operator ends
// Failed, however its other workers' setting it running and the node's
// completion interleave with the failure.
func TestExecNewInstanceFailure(t *testing.T) {
	const workers = 8
	errSetup := errors.New("model checkpoint missing")
	op := &setupFailOp{FilterOp: NewFilter("flaky", cost.Python, func(relation.Tuple) bool { return true }), err: errSetup}
	w := New("setup-failure")
	src := w.Source("src", intTable(300))
	f := w.Op(op, WithParallelism(workers))
	snk := w.Sink("out")
	w.Connect(src, f, 0, RoundRobin())
	w.Connect(f, snk, 0, RoundRobin())

	ex, err := w.Start(context.Background(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := ex.Wait()
		done <- err
	}()
	select {
	case err = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the run did not return after a worker's NewInstance failed")
	}
	var opErr *OpError
	if !errors.As(err, &opErr) {
		t.Fatalf("error type %T: %v", err, err)
	}
	if opErr.Op != "flaky" || opErr.Port != -1 || opErr.Worker < 0 || opErr.Worker >= workers {
		t.Fatalf("error attributed to %q worker %d port %d, want \"flaky\", a worker in [0,%d) and port -1", opErr.Op, opErr.Worker, opErr.Port, workers)
	}
	if !errors.Is(err, errSetup) {
		t.Fatalf("error %v does not wrap the NewInstance error", err)
	}
	if n := op.calls.Load(); n != workers {
		t.Fatalf("NewInstance called %d times, want %d", n, workers)
	}
	if got := ex.Progress()[f].State; got != Failed {
		t.Fatalf("operator ended %v, want %v", got, Failed)
	}
}

func TestExecDiamondDAGNoDeadlock(t *testing.T) {
	// One source feeds both the build and probe side of a join — the
	// shape that deadlocks engines with bounded channels.
	in := intTable(400)
	w := New("diamond")
	src := w.Source("src", in)
	a := w.Op(NewProject("left", cost.Python, "id", "v"))
	b := w.Op(NewProject("right", cost.Python, "id", "v"))
	j := w.Op(NewHashJoin("selfjoin", cost.Python, "id", "id", relation.Inner))
	snk := w.Sink("out")
	w.Connect(src, a, 0, RoundRobin())
	w.Connect(src, b, 0, RoundRobin())
	w.Connect(a, j, 0, RoundRobin())
	w.Connect(b, j, 1, RoundRobin())
	w.Connect(j, snk, 0, RoundRobin())

	done := make(chan *Result, 1)
	go func() {
		res, err := w.Run(context.Background(), Config{})
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()
	select {
	case res := <-done:
		if res != nil && res.Tables["out"].Len() != 400 {
			t.Fatalf("self join rows = %d, want 400", res.Tables["out"].Len())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("diamond DAG deadlocked")
	}
}

func TestExecProgressAndStates(t *testing.T) {
	in := intTable(300)
	w := New("progress")
	src := w.Source("src", in)
	f := w.Op(NewFilter("f", cost.Python, func(relation.Tuple) bool { return true }))
	snk := w.Sink("out")
	w.Connect(src, f, 0, RoundRobin())
	w.Connect(f, snk, 0, RoundRobin())

	ex, err := w.Start(context.Background(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Wait(); err != nil {
		t.Fatal(err)
	}
	for _, p := range ex.Progress() {
		if p.State != Completed {
			t.Fatalf("node %s state = %s, want completed", p.Name, p.State)
		}
	}
	var filterProg *OpProgress
	for i := range ex.Progress() {
		p := ex.Progress()[i]
		if p.Name == "f" {
			filterProg = &p
		}
	}
	if filterProg == nil || filterProg.InTuples != 300 || filterProg.OutTuples != 300 {
		t.Fatalf("filter progress = %+v", filterProg)
	}
}

func TestExecPauseResume(t *testing.T) {
	in := intTable(5000)
	w := New("pause")
	src := sourceBatched(w, "src", in, 10)
	f := w.Op(NewFilter("f", cost.Python, func(relation.Tuple) bool { return true }))
	snk := w.Sink("out")
	w.Connect(src, f, 0, RoundRobin())
	w.Connect(f, snk, 0, RoundRobin())

	ex, err := w.Start(context.Background(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	ex.Pause()
	if !ex.Paused() {
		t.Fatal("execution should report paused")
	}
	// While paused, counters must stop moving.
	time.Sleep(20 * time.Millisecond)
	before := ex.Progress()
	time.Sleep(30 * time.Millisecond)
	after := ex.Progress()
	for i := range before {
		if before[i].InTuples != after[i].InTuples {
			t.Fatalf("node %s progressed while paused", before[i].Name)
		}
	}
	ex.Resume()
	res, err := ex.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Tables["out"].Len() != 5000 {
		t.Fatalf("rows = %d", res.Tables["out"].Len())
	}
}

// lifecycleOp is a pass-through filter that stops its run the way mode
// names: its first NewInstance, its k-th batch or its first EndPort
// fails with err ("new-instance", "process", "end-port"), or its k-th
// batch calls cancel ("cancel").
type lifecycleOp struct {
	*FilterOp
	mode                 string
	k                    int64
	err                  error
	cancel               func()
	opens, batches, ends atomic.Int64
}

func (o *lifecycleOp) NewInstance(ec ExecCtx, in []*relation.Schema) (Instance, error) {
	if o.opens.Add(1) == 1 && o.mode == "new-instance" {
		return nil, o.err
	}
	inst, err := o.FilterOp.NewInstance(ec, in)
	return &lifecycleInstance{Instance: inst, op: o}, err
}

type lifecycleInstance struct {
	Instance
	op *lifecycleOp
}

func (i *lifecycleInstance) Process(ec ExecCtx, port int, rows []relation.Tuple) ([]relation.Tuple, error) {
	if i.op.batches.Add(1) == i.op.k {
		switch i.op.mode {
		case "process":
			return nil, i.op.err
		case "cancel":
			i.op.cancel()
		}
	}
	return i.Instance.Process(ec, port, rows)
}

func (i *lifecycleInstance) EndPort(ec ExecCtx, port int) ([]relation.Tuple, error) {
	if i.op.ends.Add(1) == 1 && i.op.mode == "end-port" {
		return nil, i.op.err
	}
	return i.Instance.EndPort(ec, port)
}

// lifecycleSink records every node's state transitions ("progress"
// counter events aside) and keeps each one that leaves Failed or
// Cancelled. When hold is set, it keeps the source inside the publish
// of the batch that brings it to holdAt rows until hold is closed, so a
// cancel lands while the source is still scanning.
type lifecycleSink struct {
	hold   chan struct{}
	holdAt int64

	mu   sync.Mutex
	last map[string]string
	left []string
}

func (s *lifecycleSink) Publish(ev telemetry.ProgressEvent) {
	if ev.State == "progress" {
		if s.hold != nil && ev.Op == "src" && ev.OutTuples == s.holdAt {
			<-s.hold
		}
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if was := s.last[ev.Op]; was == "failed" || was == "cancelled" {
		s.left = append(s.left, fmt.Sprintf("%s: %s -> %s", ev.Op, was, ev.State))
	}
	s.last[ev.Op] = ev.State
}

// A run that stops early, each way a node can stop it and at every
// worker count, ends by one rule: Wait fails exactly when some node
// ends Failed or Cancelled, no node leaves either state, and none is
// left running or initializing. An operator's failure is the run's
// error and leaves the operator Failed. A cancelled run, whether an
// operator cancels its context mid-stream or the caller cancels it
// while paused, returns the context's error and no result, and every
// node, the source held mid-scan included, ends Cancelled.
func TestExecLifecycle(t *testing.T) {
	const rows, batch, k = 3000, 10, 5
	errOp := errors.New("synthetic lifecycle failure")
	for _, mode := range []string{"new-instance", "process", "end-port", "cancel", "cancel-paused"} {
		for _, workers := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", mode, workers), func(t *testing.T) {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				cancels := strings.HasPrefix(mode, "cancel")
				sink := &lifecycleSink{last: map[string]string{}}
				if cancels {
					sink.hold, sink.holdAt = make(chan struct{}), k*batch
				}
				op := &lifecycleOp{
					FilterOp: NewFilter("f", cost.Python, func(relation.Tuple) bool { return true }),
					mode:     mode, k: k, err: errOp,
					cancel: func() { cancel(); close(sink.hold) },
				}
				w := New("lifecycle")
				src := sourceBatched(w, "src", intTable(rows), batch)
				f := w.Op(op, WithParallelism(workers))
				snk := w.Sink("out")
				w.Connect(src, f, 0, RoundRobin())
				w.Connect(f, snk, 0, RoundRobin())

				ex, err := w.Start(ctx, Config{Progress: sink})
				if err != nil {
					t.Fatal(err)
				}
				if mode == "cancel-paused" {
					ex.Pause()
					op.cancel()
				}
				type outcome struct {
					res *Result
					err error
				}
				done := make(chan outcome, 1)
				go func() {
					res, err := ex.Wait()
					done <- outcome{res, err}
				}()
				var out outcome
				select {
				case out = <-done:
				case <-time.After(10 * time.Second):
					t.Fatal("the run did not return")
				}

				ended := false
				for _, p := range ex.Progress() {
					switch p.State {
					case Failed, Cancelled:
						ended = true
					case Completed:
					default:
						t.Errorf("node %s ended %v", p.Name, p.State)
					}
				}
				if (out.err != nil) != ended {
					t.Errorf("Wait returned error %v, and a node ended failed or cancelled is %v", out.err, ended)
				}
				sink.mu.Lock()
				if len(sink.left) > 0 {
					t.Errorf("transitions out of a final state: %v", sink.left)
				}
				sink.mu.Unlock()
				if cancels {
					if out.res != nil || !errors.Is(out.err, context.Canceled) {
						t.Fatalf("cancelled run returned a result (%v) and error %v, want none and context.Canceled", out.res != nil, out.err)
					}
					for _, p := range ex.Progress() {
						if p.State != Cancelled {
							t.Errorf("node %s ended %v after %d of %d rows, want %v", p.Name, p.State, p.OutTuples, rows, Cancelled)
						}
					}
					return
				}
				var opErr *OpError
				if out.res != nil || !errors.As(out.err, &opErr) || opErr.Op != "f" || !errors.Is(out.err, errOp) {
					t.Fatalf("failed run returned a result (%v) and error %v, want none and the operator's error", out.res != nil, out.err)
				}
				if got := ex.Progress()[f].State; got != Failed {
					t.Errorf("operator ended %v, want %v", got, Failed)
				}
			})
		}
	}
}

func TestExecTraceCounters(t *testing.T) {
	in := intTable(1000)
	w := New("trace")
	src := w.Source("src", in)
	f := w.Op(NewFilter("half", cost.Python, func(r relation.Tuple) bool { return r[1].Int() < 5 }))
	snk := w.Sink("out")
	w.Connect(src, f, 0, RoundRobin())
	w.Connect(f, snk, 0, RoundRobin())

	res := runSimple(t, w)
	var srcTrace, fTrace *NodeTrace
	for i := range res.Trace.Nodes {
		switch res.Trace.Nodes[i].Name {
		case "src":
			srcTrace = &res.Trace.Nodes[i]
		case "half":
			fTrace = &res.Trace.Nodes[i]
		}
	}
	if srcTrace == nil || fTrace == nil {
		t.Fatal("traces missing")
	}
	if srcTrace.OutTuples != 1000 {
		t.Fatalf("source out = %d", srcTrace.OutTuples)
	}
	if fTrace.InTuples != 1000 || fTrace.OutTuples != 500 {
		t.Fatalf("filter in/out = %d/%d", fTrace.InTuples, fTrace.OutTuples)
	}
	if len(res.Trace.Edges) != 2 {
		t.Fatalf("edges = %d", len(res.Trace.Edges))
	}
	for _, e := range res.Trace.Edges {
		if e.Bytes <= 0 || e.Batches <= 0 {
			t.Fatalf("edge stats = %+v", e)
		}
	}
	tw := fTrace.TotalWork()
	if tw.Interp <= 0 {
		t.Fatal("filter charged no work")
	}
}

func TestExecMoreWorkersFaster(t *testing.T) {
	// Large enough that per-tuple work dominates the fixed startup and
	// submission overheads.
	in := intTable(100000)
	build := func(workers int) float64 {
		w := New("scale")
		src := w.Source("src", in)
		op := NewMap("work", cost.Python, in.Schema(), func(r relation.Tuple, out *Rows) error {
			out.Emit(r...)
			return nil
		})
		op.Work = cost.Work{Interp: 100e-6} // make the map the bottleneck
		m := w.Op(op, WithParallelism(workers))
		snk := w.Sink("out")
		w.Connect(src, m, 0, RoundRobin())
		w.Connect(m, snk, 0, RoundRobin())
		res := runSimple(t, w)
		return res.SimSeconds
	}
	t1 := build(1)
	t4 := build(4)
	if t4 >= t1 {
		t.Fatalf("4 workers (%v) not faster than 1 (%v)", t4, t1)
	}
	if t4 > t1/2 {
		t.Fatalf("4 workers (%v) should be well under half of 1 worker (%v)", t4, t1)
	}
}

func TestExecPipeliningBeatsFusedSingleOperator(t *testing.T) {
	// The Figure 12b mechanism: the same total work split across a
	// chain of operators finishes sooner than fused into one operator,
	// because stages overlap.
	in := intTable(20000)
	perTuple := cost.Work{Interp: 30e-6}
	passthrough := func(r relation.Tuple, out *Rows) error {
		out.Emit(r...)
		return nil
	}
	fused := func() float64 {
		w := New("fused")
		src := w.Source("src", in)
		op := NewMap("all", cost.Python, in.Schema(), passthrough)
		op.Work = perTuple.Scale(3)
		m := w.Op(op)
		snk := w.Sink("out")
		w.Connect(src, m, 0, RoundRobin())
		w.Connect(m, snk, 0, RoundRobin())
		return runSimple(t, w).SimSeconds
	}()
	split := func() float64 {
		w := New("split")
		src := w.Source("src", in)
		prev := src
		for i := 0; i < 3; i++ {
			op := NewMap(fmt.Sprintf("stage%d", i), cost.Python, in.Schema(), passthrough)
			op.Work = perTuple
			m := w.Op(op)
			w.Connect(prev, m, 0, RoundRobin())
			prev = m
		}
		snk := w.Sink("out")
		w.Connect(prev, snk, 0, RoundRobin())
		return runSimple(t, w).SimSeconds
	}()
	if split >= fused {
		t.Fatalf("pipelined chain (%v) should beat fused operator (%v)", split, fused)
	}
}

func TestAutoBatchSize(t *testing.T) {
	if AutoBatchSize(0) != 1 {
		t.Fatal("empty table batch size")
	}
	if AutoBatchSize(100) != 1 {
		t.Fatalf("small table batch = %d", AutoBatchSize(100))
	}
	if AutoBatchSize(1_000_000) != 2048 {
		t.Fatalf("huge table batch = %d", AutoBatchSize(1_000_000))
	}
	mid := AutoBatchSize(96 * 100)
	if mid != 100 {
		t.Fatalf("mid table batch = %d", mid)
	}
}

func TestClusterBoundsParallelism(t *testing.T) {
	in := intTable(100)
	build := func(workers int) *Workflow {
		w := New("bounded")
		src := w.Source("src", in)
		f := w.Op(NewFilter("f", cost.Python, func(relation.Tuple) bool { return true }), WithParallelism(workers))
		snk := w.Sink("out")
		w.Connect(src, f, 0, RoundRobin())
		w.Connect(f, snk, 0, RoundRobin())
		return w
	}
	// The zero topology is the paper cluster's 32 worker vCPUs.
	if _, err := build(8).Run(context.Background(), Config{}); err != nil {
		t.Fatal(err)
	}
	if _, err := build(64).Run(context.Background(), Config{}); err == nil {
		t.Fatal("expected error for parallelism beyond the cluster's vCPUs")
	}
	if _, err := build(64).Run(context.Background(), Config{Shard: shard.Of(16)}); err != nil {
		t.Fatalf("64 workers on 16 nodes' 128 vCPUs: %v", err)
	}
}
