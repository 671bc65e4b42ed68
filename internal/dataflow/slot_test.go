package dataflow

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/relation"
	"repro/internal/telemetry"
	"repro/internal/xrand"
)

// slotDiamond is a diamond whose two branches, maps that yield their
// thread on every row, meet in a hash join, sorted before the sink so
// the output's digest does not depend on arrival order. The first
// branch calls cancel on its cancelAt-th batch (0: never).
func slotDiamond(par [3]int, batch int, cancelAt int64, cancel func()) *Workflow {
	w := New("slot-diamond")
	src := sourceBatched(w, "src", intTable(240), batch)
	var opA Operator = NewMap("a", cost.Python, relation.MustSchema(
		relation.Field{Name: "id", Type: relation.Int},
		relation.Field{Name: "a", Type: relation.Int},
	), func(r relation.Tuple, out *Rows) error {
		runtime.Gosched()
		out.Emit(r[0], relation.IntValue(3*r[1].Int()))
		return nil
	})
	if cancelAt > 0 {
		opA = &cancelAtOp{Operator: opA, at: cancelAt, cancel: cancel}
	}
	a := w.Op(opA, WithParallelism(par[0]))
	b := w.Op(NewMap("b", cost.Python, relation.MustSchema(
		relation.Field{Name: "key", Type: relation.Int},
		relation.Field{Name: "b", Type: relation.Int},
	), func(r relation.Tuple, out *Rows) error {
		runtime.Gosched()
		out.Emit(r[0], relation.IntValue(r[0].Int()%7))
		return nil
	}), WithParallelism(par[1]))
	j := w.Op(NewHashJoin("j", cost.Python, "id", "key", relation.Inner), WithParallelism(par[2]))
	s := w.Op(NewSort("s", cost.Python, "key"))
	snk := w.Sink("out")
	w.Connect(src, a, 0, RoundRobin())
	w.Connect(src, b, 0, RoundRobin())
	w.Connect(a, j, 0, HashPartition("id"))
	w.Connect(b, j, 1, HashPartition("key"))
	w.Connect(j, s, 0, RoundRobin())
	w.Connect(s, snk, 0, RoundRobin())
	return w
}

// cancelAtOp calls cancel when its operator's workers have taken at
// batches between them.
type cancelAtOp struct {
	Operator
	batches atomic.Int64
	at      int64
	cancel  func()
}

func (o *cancelAtOp) NewInstance(ec ExecCtx, in []*relation.Schema) (Instance, error) {
	inst, err := o.Operator.NewInstance(ec, in)
	return &cancelAtInstance{Instance: inst, op: o}, err
}

type cancelAtInstance struct {
	Instance
	op *cancelAtOp
}

func (i *cancelAtInstance) Process(ec ExecCtx, port int, rows []relation.Tuple) ([]relation.Tuple, error) {
	if i.op.batches.Add(1) == i.op.at {
		i.op.cancel()
	}
	return i.Instance.Process(ec, port, rows)
}

// waitGoroutines waits, up to a deadline, for the goroutine count to
// fall back to base: a run's runners and scans return just after Wait
// does, so their exit is polled for, not awaited.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after Wait, %d before the run:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// Worker slots under stress: a diamond with a join, each operator at a
// parallelism drawn from 1 to 32, batches of one to three rows, and
// UDFs that yield on every row, so wake-ups race the slots' going idle.
// Every third row cancels the run at a random batch. A row that is not
// cancelled ends with the digest of a one-worker run and one that is
// with the context's error, each with every node in a final state and
// no goroutine of the run left behind.
func TestExecSlotsStress(t *testing.T) {
	want, err := slotDiamond([3]int{1, 1, 1}, 1, 0, nil).Run(context.Background(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	digest := relation.Digest(want.Tables["out"])
	seed := uint64(time.Now().UnixNano())
	t.Logf("seed %d", seed)
	r := xrand.New(seed)
	for row := range 12 {
		par := [3]int{1 + r.Intn(32), 1 + r.Intn(32), 1 + r.Intn(32)}
		batch := 1 + r.Intn(3)
		cancelAt := int64(0)
		if row%3 == 2 {
			cancelAt = 1 + int64(r.Intn(240/batch))
		}
		name := fmt.Sprintf("seed %d: par=%v/batch=%d/cancel-at=%d", seed, par, batch, cancelAt)
		base := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		ex, err := slotDiamond(par, batch, cancelAt, cancel).Start(ctx, Config{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := ex.Wait()
		cancel()
		switch {
		case cancelAt > 0:
			if res != nil || !errors.Is(err, context.Canceled) {
				t.Errorf("%s: Wait = %v and a result (%v), want context.Canceled and none", name, err, res != nil)
			}
		case err != nil:
			t.Errorf("%s: a run nothing cancelled failed: %v", name, err)
		case relation.Digest(res.Tables["out"]) != digest:
			t.Errorf("%s: digest %x, want the one-worker run's %x", name, relation.Digest(res.Tables["out"]), digest)
		}
		for _, p := range ex.Progress() {
			if p.State != Completed && (cancelAt == 0 || p.State != Cancelled) {
				t.Errorf("%s: node %s ended %v", name, p.Name, p.State)
			}
		}
		waitGoroutines(t, base)
	}
}

// goroutinePeak samples the goroutine count on every progress event and
// keeps the highest.
type goroutinePeak struct{ peak atomic.Int64 }

func (g *goroutinePeak) Publish(telemetry.ProgressEvent) {
	n := int64(runtime.NumGoroutine())
	for old := g.peak.Load(); n > old && !g.peak.CompareAndSwap(old, n); old = g.peak.Load() {
	}
}

// A run's workers are slots, not goroutines: a run of three 32-worker
// operators holds at most a runner per GOMAXPROCS, a goroutine per
// source and the one that finishes the run above the goroutines there
// were before it, however many workers it has.
func TestExecRunnerGoroutineBound(t *testing.T) {
	const sources, finisher = 1, 1
	peak := &goroutinePeak{}
	w := New("runners")
	src := sourceBatched(w, "src", intTable(2000), 8)
	f := w.Op(NewFilter("f", cost.Python, func(r relation.Tuple) bool { return r[1].Int() != 3 }), WithParallelism(32))
	p := w.Op(NewProject("p", cost.Python, "id"), WithParallelism(32))
	g := w.Op(NewGroupBy("g", cost.Python, []string{"id"}, []relation.Aggregate{{Func: relation.Count, As: "n"}}), WithParallelism(32))
	snk := w.Sink("out")
	w.Connect(src, f, 0, RoundRobin())
	w.Connect(f, p, 0, RoundRobin())
	w.Connect(p, g, 0, HashPartition("id"))
	w.Connect(g, snk, 0, RoundRobin())
	base := runtime.NumGoroutine()
	res, err := w.Run(context.Background(), Config{Progress: peak})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Tables["out"].Len(); got != 1800 {
		t.Fatalf("rows = %d, want 1800", got)
	}
	bound := int64(base + runtime.GOMAXPROCS(0) + sources + finisher)
	if got := peak.peak.Load(); got > bound {
		t.Fatalf("a run of 97 workers peaked at %d goroutines, %d before it; bound %d (GOMAXPROCS %d)", got, base, bound, runtime.GOMAXPROCS(0))
	}
	waitGoroutines(t, base)
}
