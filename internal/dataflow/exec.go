package dataflow

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/faults"
	"repro/internal/lineage"
	"repro/internal/relation"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Config controls one workflow execution.
type Config struct {
	// Model supplies the cost constants; nil uses cost.Default().
	Model *cost.Model
	// Shard selects the cluster tier. The zero topology (or Nodes <= 1)
	// is the legacy single-cluster path on the paper's 32 vCPUs; Nodes > 1
	// datum-shards the run across that many nodes, pricing cross-node
	// exchanges at the NIC rate and larger-than-memory blocking operators
	// through the grace spill path. Only the schedule/cost plane is
	// affected — sink tables stay bit-identical across topologies. Its
	// TotalVCPUs bounds operator parallelism: no single operator may
	// request more workers than that (operators multiplex cores between
	// themselves, as Texera's workers do, so the sum is not bounded).
	Shard shard.Topology
	// Telemetry, when set, receives per-operator spans, hot-path
	// metrics and the critical-path breakdown of the execution. Nil
	// (the default) keeps the executor on its uninstrumented fast path.
	Telemetry *telemetry.Recorder
	// Faults, when enabled, arms epoch checkpointing and deterministic
	// fault injection on the simulated schedule. The data path is
	// unaffected: sink tables are bit-identical to a failure-free run,
	// only SimSeconds and the Recovery accounting change.
	Faults faults.Plan
	// Lineage, when set, arms operator-granularity result caching: node
	// outputs are committed to the versioned artifact store and cache
	// hits replay stored tables instead of executing (see lineage.go).
	Lineage *lineage.Store
	// LineageScope names this workflow build in the store; empty uses
	// "workflow:<name>". Runs that share a scope share warm-start
	// accounting; fingerprints alone keep their artifacts apart.
	LineageScope string
	// Progress, when set, receives live per-operator progress events:
	// state transitions as nodes open, run, and complete, fail or are
	// cancelled, and cumulative tuple counters per emitted batch. Nil
	// (the default) costs one pointer check per transition and per batch.
	// An operator's events are published on the runner stepping its
	// worker, so Publish must not wait on the run's own progress; a
	// source's come from the source's goroutine, which may wait.
	Progress core.ProgressSink
}

// Result is the outcome of a completed workflow execution.
type Result struct {
	// Tables holds each sink's collected output, keyed by sink name.
	Tables map[string]*relation.Table
	// Trace is the cost record of the execution.
	Trace *Trace
	// SimSeconds is the simulated cluster execution time.
	SimSeconds float64
	// Recovery describes checkpoint and fault-recovery work; nil when
	// the execution ran without a fault plan.
	Recovery *RecoveryInfo
	// Lineage summarizes artifact-store reuse; nil when the execution
	// ran without a lineage store.
	Lineage *lineage.RunReport
}

// AutoBatchSize picks the batch size a source uses when none is
// configured: large enough to amortize per-batch overhead on big
// inputs, small enough to produce many batches for pipelining and
// worker load balancing — tiny inputs stream row by row.
func AutoBatchSize(rows int) int {
	b := rows / 96
	if b < 1 {
		b = 1
	}
	if b > 2048 {
		b = 2048
	}
	return b
}

// edgeStat counts an edge's traffic with atomics: emit is called by
// every producer worker concurrently, and a shared mutex here was one
// of the executor's hottest serialization points.
type edgeStat struct {
	batches atomic.Int64
	tuples  atomic.Int64
	bytes   atomic.Int64
}

// workShard is one worker's private state: its work accumulators, its
// ExecCtx with the arena its instance carves output from, and, for an
// operator or sink worker, its slot (see step). Only the runner stepping
// the slot writes the shard's plain fields; the slot state's atomics
// order one step before the next, and the run's node count orders every
// step before the shards are merged. The trailing pad keeps
// neighbouring shards off one cache line.
type workShard struct {
	byPort []cost.Work
	end    cost.Work
	open   cost.Work
	ec     execCtx

	slot atomic.Int32 // slotDone, slotIdle or slotQueued
	inst Instance     // made on the slot's first step
	join *joinInstance
	port int      // the in-port the slot reads
	_    [48]byte // false-sharing pad
}

// A slot's states. A slot is queued from the moment a waker (or Start)
// claims it until the step that finds its queue dry sets it idle: a
// queued slot is in the run queue or in a runner's hands, never both,
// and at most once in the run queue.
const (
	slotDone   int32 = iota // the zero state: a source's shard is never a slot
	slotIdle                // waiting for a batch, a close or a cancel
	slotQueued              // claimed; a runner will step it
)

// stepBatches is how many batches a step takes before its slot yields
// the runner. A slot stepped until its queue ran dry let its producers
// run ahead and grow their consumers' rings; one batch a step paid a
// run-queue round trip per batch.
const stepBatches = 4

// queueRing is how many batches each in-port queue's first ring holds;
// a node's first rings are one allocation, and grow doubles past them.
const queueRing = 4

// outEdge is a node's end of one out-edge: the edge's traffic and, on a
// round-robin edge, the number of batches its producer's workers have
// dealt. An edge into a consumer that does not execute is not live: it
// carries and counts nothing.
type outEdge struct {
	stat edgeStat
	rr   atomic.Int64
	live bool
}

type nodeRuntime struct {
	n            *node
	state        atomic.Int32
	inTuples     atomic.Int64
	outTuples    atomic.Int64
	batches      atomic.Int64
	inQ          [][]queue // [port][worker], one backing array
	edges        []outEdge // per outEdge
	inputSchemas []*relation.Schema
	sinkTable    *relation.Table

	shards []workShard // one per worker
	wall   []wallShard // like shards; allocated only when telemetry is on

	// capture holds one arena per worker, drawn from the run's store,
	// whose open batch collects every row the worker emitted, for the
	// lineage commit; allocated only for dirty operators under a lineage
	// store.
	capture []relation.Arena

	// pushKeep, set for a join that may evaluate its filter (see
	// pushedFilter), is bound to each of its instances.
	pushKeep relation.Predicate

	// live counts the node's slots that are not done; the slot that
	// brings it to zero completes the node.
	live atomic.Int32
}

// Phase sentinels for work attribution outside port processing.
const (
	phaseEnd  = -1 // EndPort
	phaseOpen = -2 // NewInstance (per-worker initialization)
)

// setState transitions a node's state and, when a progress sink is
// attached and the state actually changed, publishes the transition.
// It is the only writer of rt.state. Failed and Cancelled are final:
// after one worker ends the node so, complete or another worker ending
// it changes nothing. The compare-and-swap makes the
// publish exactly-once when several workers race to end the node.
func (ex *Execution) setState(rt *nodeRuntime, s State) {
	for {
		old := rt.state.Load()
		if old == int32(s) || old == int32(Failed) || old == int32(Cancelled) {
			return
		}
		if rt.state.CompareAndSwap(old, int32(s)) {
			break
		}
	}
	if ex.cfg.Progress != nil {
		ex.publishProgress(rt, s.String())
	}
}

// publishProgress sends one progress event for a node. Callers check
// ex.cfg.Progress != nil first; the engine's unobserved fast path pays
// only that nil check.
func (ex *Execution) publishProgress(rt *nodeRuntime, state string) {
	ex.cfg.Progress.Publish(core.ProgressEvent{
		Task:      ex.wf.name,
		Paradigm:  "workflow",
		Op:        rt.n.name,
		Kind:      rt.n.kind.String(),
		State:     state,
		InTuples:  rt.inTuples.Load(),
		OutTuples: rt.outTuples.Load(),
		Workers:   rt.n.parallelism,
	})
}

// addShardWork charges work to a port bucket, the end bucket (phaseEnd)
// or the open bucket (phaseOpen) of one worker's shard.
func addShardWork(sh *workShard, port int, w cost.Work) {
	switch {
	case port == phaseOpen:
		sh.open = sh.open.Add(w)
	case port < 0:
		sh.end = sh.end.Add(w)
	default:
		sh.byPort[port] = sh.byPort[port].Add(w)
	}
}

// mergedWork folds the per-worker shards into port/end/open totals in
// shard order, so the reduction is deterministic. Call only after the
// node's workers have finished.
func (rt *nodeRuntime) mergedWork() (byPort []cost.Work, end, open cost.Work) {
	byPort = make([]cost.Work, len(rt.shards[0].byPort))
	for s := range rt.shards {
		sh := &rt.shards[s]
		for p := range sh.byPort {
			byPort[p] = byPort[p].Add(sh.byPort[p])
		}
		end = end.Add(sh.end)
		open = open.Add(sh.open)
	}
	return byPort, end, open
}

// execCtx is the per-worker ExecCtx implementation. It lives in the
// worker's shard.
type execCtx struct {
	rt      *nodeRuntime
	shard   *workShard
	worker  int
	phase   int // current port, or -1 during EndPort
	dropped int // the batch in hand's batchMsg.dropped; 0 during EndPort

	// split regroups this worker's batches on hash edges. Its arena,
	// drawn from the run's store, is also the one the instance carves its
	// output from (Out): an instance closes each batch before it returns
	// it, so the two never hold an open batch at once.
	split hashSplitter
}

func (ec *execCtx) AddWork(w cost.Work)  { addShardWork(ec.shard, ec.phase, w) }
func (ec *execCtx) Out() *relation.Arena { return &ec.split.out }

// Execution is a running (or finished) workflow.
type Execution struct {
	wf     *Workflow
	cfg    Config
	model  *cost.Model
	ctx    context.Context
	cancel context.CancelFunc
	gate   gate
	rts    []*nodeRuntime
	tel    *execTelemetry // nil = telemetry off
	lin    *lineagePlan   // nil = lineage off
	done   chan struct{}

	// store is the one storage every arena of the run carves from: each
	// worker's output and hash-regroup arena and each lineage capture.
	// The chunk sizing rule applies to what the whole run has carved, so
	// the run, not each operator, keeps one chunk's empty tail.
	store relation.ArenaSource

	// runq holds the queued operator and sink slots the runners step;
	// it is sized to the run's slot count, and a slot is in it at most
	// once, so no send on it blocks. nodes counts the nodes that have
	// not completed.
	runq  chan *workShard
	nodes sync.WaitGroup

	errOnce sync.Once
	err     error

	result *Result
}

// Start validates the workflow and launches its execution
// asynchronously. Use Wait for completion, Pause/Resume for control,
// and Progress for live operator states.
func (w *Workflow) Start(ctx context.Context, cfg Config) (*Execution, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	model := cfg.Model
	if model == nil {
		model = cost.Default()
	}
	if err := model.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Faults.Validate(); err != nil {
		return nil, err
	}
	limit := cfg.Shard.TotalVCPUs()
	for _, n := range w.nodes {
		if n.parallelism > limit {
			return nil, fmt.Errorf("dataflow: operator %q requests %d workers, cluster has %d worker vCPUs", n.name, n.parallelism, limit)
		}
	}
	runCtx, cancel := context.WithCancel(ctx)
	ex := &Execution{
		wf:     w,
		cfg:    cfg,
		model:  model,
		ctx:    runCtx,
		cancel: cancel,
		tel:    newExecTelemetry(cfg.Telemetry, w.name),
		done:   make(chan struct{}),
	}

	// Plan lineage modes (fingerprints, store lookups, replay/skip
	// assignment) first: an edge is wired only when its consumer
	// executes, and only an executing operator captures its output.
	if err := ex.planLineage(); err != nil {
		cancel()
		return nil, err
	}
	executes := func(n *node) bool { return ex.lin == nil || ex.lin.mode[n.id] == lmDirty }

	// Build runtimes.
	ex.rts = make([]*nodeRuntime, len(w.nodes))
	slots := 0 // the operator and sink workers that execute
	for _, n := range w.nodes {
		rt := &nodeRuntime{n: n}
		ports := 0
		switch n.kind {
		case kindOperator:
			ports = n.op.Desc().Ports
		case kindSink:
			ports = 1
		}
		// Worker state comes in one allocation per kind, not one per
		// worker: the in-port queues are a [port][worker] view of one
		// slice, and their first rings are carved from one block.
		par := n.parallelism
		queues := make([]queue, ports*par)
		rings := make([]batchMsg, len(queues)*queueRing)
		for i := range queues {
			queues[i].buf = rings[i*queueRing : (i+1)*queueRing : (i+1)*queueRing]
		}
		if ports > 0 && executes(n) { // a source has no in-ports
			slots += par
		}
		rt.inQ = make([][]queue, ports)
		for p := range rt.inQ {
			rt.inQ[p] = queues[p*par : (p+1)*par : (p+1)*par]
		}
		rt.edges = make([]outEdge, len(n.outEdges))
		for i, e := range n.outEdges {
			rt.edges[i].live = executes(e.to)
		}
		workPorts := max(ports, 1) // a source charges its scan to port 0
		work := make([]cost.Work, par*workPorts)
		rt.shards = make([]workShard, par)
		for s := range rt.shards {
			sh := &rt.shards[s]
			sh.byPort = work[s*workPorts : (s+1)*workPorts : (s+1)*workPorts]
			sh.ec = execCtx{rt: rt, shard: sh, worker: s, split: hashSplitter{out: ex.store.Arena()}}
		}
		if ex.tel != nil {
			rt.wall = make([]wallShard, n.parallelism)
		}
		rt.inputSchemas = make([]*relation.Schema, ports)
		for _, e := range n.inEdges {
			rt.inputSchemas[e.port] = e.from.schema
		}
		switch {
		case n.kind == kindSink:
			rt.sinkTable = relation.NewTable(n.schema)
		case n.kind == kindOperator && ex.lin != nil && executes(n):
			// A committed artifact needs every row, so a capturing join
			// builds them all.
			rt.capture = make([]relation.Arena, n.parallelism)
			for wk := range rt.capture {
				rt.capture[wk] = ex.store.Arena()
			}
		default:
			rt.pushKeep = pushedFilter(n)
		}
		ex.setState(rt, Initializing)
		ex.rts[n.id] = rt
	}

	// Sources and replayed nodes scan on a goroutine each: a progress
	// sink may block a scan, and a runner must never wait on one. A
	// skipped node completes now; every other node's workers are slots,
	// all queued so that each makes its instance.
	ex.nodes.Add(len(w.nodes))
	ex.runq = make(chan *workShard, slots)
	for _, rt := range ex.rts {
		switch {
		case rt.n.kind == kindSource && executes(rt.n):
			go ex.scanNode(rt, rt.n.table, rt.n.scanWork, ex.tel)
		case ex.lin != nil && ex.lin.mode[rt.n.id] == lmReplay:
			// The cached artifact is scanned in the node's place, at no
			// work and with no exec telemetry: the trace prices the fetch.
			go ex.scanNode(rt, ex.lin.art[rt.n.id].Table, cost.Work{}, nil)
		case !executes(rt.n): // lmSkip
			// Elided entirely: the cached artifact stands in for the node.
			ex.complete(rt)
		default:
			// The node runs before its slots do, so a worker's Failed or
			// Cancelled is published after it.
			ex.setState(rt, Running)
			rt.live.Store(int32(rt.n.parallelism))
			for s := range rt.shards {
				rt.shards[s].slot.Store(slotQueued)
				ex.runq <- &rt.shards[s]
			}
		}
	}
	// A cancel wakes every idle slot, so each ends itself Cancelled.
	stop := context.AfterFunc(runCtx, func() {
		for _, rt := range ex.rts {
			for s := range rt.shards {
				ex.wake(&rt.shards[s])
			}
		}
	})
	for range min(runtime.GOMAXPROCS(0), slots) {
		go func() {
			for sh := range ex.runq {
				ex.step(sh)
			}
		}()
	}

	go func() {
		ex.nodes.Wait()
		// Every slot is done, so nothing sends on runq any more.
		stop()
		close(ex.runq)
		ex.finish()
		ex.cancel() // release the run's context; every node has stopped
		close(ex.done)
	}()
	return ex, nil
}

// Run executes the workflow synchronously and returns its result.
func (w *Workflow) Run(ctx context.Context, cfg Config) (*Result, error) {
	ex, err := w.Start(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return ex.Wait()
}

// fail records the first error and cancels the execution.
func (ex *Execution) fail(err error) {
	ex.errOnce.Do(func() {
		ex.err = err
		ex.cancel()
	})
}

// Wait blocks until the execution completes and returns its result or
// the first error: an operator's OpError, or the context's error when
// the run was cancelled before every node finished.
func (ex *Execution) Wait() (*Result, error) {
	<-ex.done
	if ex.err != nil {
		return nil, ex.err
	}
	return ex.result, nil
}

// Pause suspends all workers at the next batch boundary.
func (ex *Execution) Pause() { ex.gate.pause() }

// Resume releases a paused execution.
func (ex *Execution) Resume() { ex.gate.resume() }

// Paused reports whether the execution is paused.
func (ex *Execution) Paused() bool { return ex.gate.paused() }

// Progress returns a snapshot of every node's state and tuple
// counters, in node order.
func (ex *Execution) Progress() []OpProgress {
	paused := ex.gate.paused()
	out := make([]OpProgress, len(ex.rts))
	for i, rt := range ex.rts {
		s := State(rt.state.Load())
		if paused && s == Running {
			s = Paused
		}
		out[i] = OpProgress{
			Name:      rt.n.name,
			Kind:      rt.n.kind.String(),
			State:     s,
			InTuples:  rt.inTuples.Load(),
			OutTuples: rt.outTuples.Load(),
			Workers:   rt.n.parallelism,
		}
	}
	return out
}

// pushedFilter returns the predicate a join node may evaluate for its
// consumer, or nil: n must be a hash join whose one out-edge goes
// round-robin into a FilterOp. A round-robin edge hands each batch, and
// so its dropped count, whole to one filter worker; a hash edge splits
// a batch and a broadcast one copies it, so both keep every row.
func pushedFilter(n *node) relation.Predicate {
	if _, ok := n.op.(*HashJoinOp); !ok || len(n.outEdges) != 1 {
		return nil
	}
	e := n.outEdges[0]
	if f, ok := e.to.op.(*FilterOp); ok && e.part.kind == partRoundRobin {
		return f.Keep
	}
	return nil
}

// emit routes rows one of a node's workers produced, on that worker,
// straight into the port queues of each live out-edge's consumer: a
// broadcast edge hands the batch to every consumer worker, a hash edge
// splits it by key with the worker's splitter, and a round-robin edge
// deals it to the worker next in the edge's count. It updates trace
// counters; an edge that is not live carries and counts nothing. dropped
// rows, droppedBytes encoded, are the rows of the batch a join judged
// against its filter's predicate and did not build: they are counted as
// the traffic they would have been, and travel on the batch as a count,
// even when no row was kept, so the edge carries the same batches to
// the same workers either way.
func (ex *Execution) emit(rt *nodeRuntime, worker int, rows []relation.Tuple, dropped int, droppedBytes int64) {
	if len(rows) == 0 && dropped == 0 {
		return
	}
	if rt.capture != nil {
		copy(rt.capture[worker].Slots(len(rows)), rows)
	}
	tuples := int64(len(rows) + dropped)
	rt.outTuples.Add(tuples)
	rt.batches.Add(1)
	bytes := droppedBytes
	for _, r := range rows {
		bytes += relation.EncodedSize(r)
	}
	msg := batchMsg{rows: rows, dropped: dropped}
	for i, e := range rt.n.outEdges {
		oe := &rt.edges[i]
		if !oe.live {
			continue
		}
		oe.stat.batches.Add(1)
		oe.stat.tuples.Add(tuples)
		oe.stat.bytes.Add(bytes)
		to := ex.rts[e.to.id]
		outs := to.inQ[e.port]
		switch {
		case e.part.kind == partBroadcast:
			for wk := range outs {
				outs[wk].push(msg)
				ex.wake(&to.shards[wk])
			}
		case e.part.kind == partHash && len(outs) > 1:
			placed, ends := rt.shards[worker].ec.split.by(rows, e.keyPos, len(outs))
			lo := 0
			for wk, hi := range ends {
				if hi > lo {
					outs[wk].push(batchMsg{rows: placed[lo:hi:hi]})
					ex.wake(&to.shards[wk])
				}
				lo = hi
			}
		default: // round robin, or a hash edge into one worker
			wk := (oe.rr.Add(1) - 1) % int64(len(outs))
			outs[wk].push(msg)
			ex.wake(&to.shards[wk])
		}
	}
	if ex.cfg.Progress != nil {
		ex.publishProgress(rt, "progress")
	}
}

// hashSplitter is one worker's state for its hash edges: a write offset
// per output, and the arena the regrouped batches are carved from. It
// belongs to one worker and never leaves it; the batches it places do.
type hashSplitter struct {
	offs []int
	out  relation.Arena
}

// by regroups rows by the hash of their key cell into outs groups —
// count, then place: the groups sit back to back in one batch, each
// keeping its rows in arrival order, and group g ends at ends[g] (and
// starts where the group before it ends). Placing hashes each row again
// and writes it straight into its slot, so the splitter keeps no per-row
// scratch. ends is valid until the next call.
func (s *hashSplitter) by(rows []relation.Tuple, keyPos, outs int) (placed []relation.Tuple, ends []int) {
	if cap(s.offs) < outs {
		s.offs = make([]int, outs)
	}
	offs := s.offs[:outs]
	clear(offs)
	for _, r := range rows {
		offs[int(r.KeyHash(keyPos))%outs]++
	}
	sum := 0
	for g, c := range offs {
		offs[g] = sum
		sum += c
	}
	slots := s.out.Slots(len(rows))
	for _, r := range rows {
		d := int(r.KeyHash(keyPos)) % outs
		slots[offs[d]] = r
		offs[d]++
	}
	return s.out.Batch(), offs
}

// scanNode runs a source or a replayed node on its own goroutine: it
// scans table, then completes the node.
func (ex *Execution) scanNode(rt *nodeRuntime, table *relation.Table, work cost.Work, tel *execTelemetry) {
	ex.scan(rt, table, work, tel)
	ex.complete(rt)
}

// complete ends a node whose workers have all stopped: it sets it
// Completed (a node that failed or was cancelled stays so), closes the
// port queues it feeds, so downstream sees EOF, and wakes their slots.
// A port has one in-edge, so no other producer pushes there.
func (ex *Execution) complete(rt *nodeRuntime) {
	ex.setState(rt, Completed)
	for i, e := range rt.n.outEdges {
		if rt.edges[i].live {
			to := ex.rts[e.to.id]
			outs := to.inQ[e.port]
			for wk := range outs {
				outs[wk].close()
				ex.wake(&to.shards[wk])
			}
		}
	}
	ex.nodes.Done()
}

// scan streams table downstream in batches, charging work per row to
// port 0 and recording each batch on tel (nil records nothing).
func (ex *Execution) scan(rt *nodeRuntime, table *relation.Table, work cost.Work, tel *execTelemetry) {
	ex.setState(rt, Running)
	size := rt.n.batchSize
	if size == 0 {
		size = AutoBatchSize(table.Len())
	}
	for _, b := range table.Batches(size) {
		if err := ex.gate.wait(ex.ctx); err != nil {
			ex.cancelOp(rt, err)
			return
		}
		t0 := tel.beginBatch(nil)
		addShardWork(&rt.shards[0], 0, work.Scale(float64(len(b.Rows))))
		ex.emit(rt, 0, b.Rows, 0, 0)
		tel.endBatch(rt, 0, t0, int64(len(b.Rows)))
	}
}

// newInstance makes one worker's instance of the node ready, charging
// its setup work to ec: a sink's collects into the sink table, and a
// join bound to its filter's predicate (pushKeep) is returned as join
// too, for its dropped rows.
func (rt *nodeRuntime) newInstance(ec *execCtx) (inst Instance, join *joinInstance, err error) {
	if rt.n.kind == kindSink {
		return &sinkInstance{table: rt.sinkTable}, nil, nil
	}
	if inst, err = rt.n.op.NewInstance(ec, rt.inputSchemas); err != nil {
		return nil, nil, err
	}
	if rt.pushKeep != nil {
		join = inst.(*joinInstance)
		join.pushFilter(rt.pushKeep)
	}
	return inst, join, nil
}

// sinkInstance is a sink's one worker: it appends every row it is
// handed to the sink's table and emits nothing.
type sinkInstance struct{ table *relation.Table }

func (s *sinkInstance) Process(_ ExecCtx, _ int, rows []relation.Tuple) ([]relation.Tuple, error) {
	for _, r := range rows {
		s.table.AppendUnchecked(r)
	}
	return nil, nil
}

func (s *sinkInstance) EndPort(ExecCtx, int) ([]relation.Tuple, error) { return nil, nil }

// wake queues an idle slot on the run queue. A slot that is queued
// already, or done, is left as it is.
func (ex *Execution) wake(sh *workShard) {
	if sh.slot.CompareAndSwap(slotIdle, slotQueued) {
		ex.runq <- sh
	}
}

// step runs one operator or sink worker's slot on a runner: ports in
// order, batches in arrival order, at most stepBatches batches before it
// yields the runner back to the run queue. The first step makes the
// worker's instance. A step passes the gate after it takes a batch, or
// finds its port closed and drained, and before it acts on either, so a
// worker never ends a port its producer closed because the run was
// cancelled.
func (ex *Execution) step(sh *workShard) {
	ec := &sh.ec
	rt, worker := ec.rt, ec.worker
	if sh.inst == nil {
		ec.phase = phaseOpen
		inst, join, err := rt.newInstance(ec)
		if err != nil {
			ex.failOp(sh, -1, err)
			return
		}
		sh.inst, sh.join = inst, join
	}
	for n := 0; n < stepBatches; {
		port := sh.port
		q := &rt.inQ[port][worker]
		msg, ok, drained := q.tryPop()
		if !ok && !drained {
			// The queue ran dry. The slot goes idle, then looks at its
			// queue and the run's context once more: a push or a cancel
			// that came before the store found the slot queued and did
			// not wake it. A waker that claims it from here on steps it.
			sh.slot.Store(slotIdle)
			if !q.ready() && ex.ctx.Err() == nil || !sh.slot.CompareAndSwap(slotIdle, slotQueued) {
				return
			}
			if ex.ctx.Err() == nil {
				continue
			}
		}
		if err := ex.gate.wait(ex.ctx); err != nil {
			ex.cancelOp(rt, err)
			ex.retire(sh)
			return
		}
		if !ok { // the port is closed and drained
			ec.phase, ec.dropped = phaseEnd, 0
			out, err := sh.inst.EndPort(ec, port)
			if err != nil {
				ex.failOp(sh, port, err)
				return
			}
			ex.emit(rt, worker, out, 0, 0)
			if sh.port++; sh.port == len(rt.inQ) {
				ex.retire(sh)
				return
			}
			continue
		}
		t0 := ex.tel.beginBatch(q)
		in := int64(len(msg.rows) + msg.dropped)
		rt.inTuples.Add(in)
		ec.phase, ec.dropped = port, msg.dropped
		out, err := sh.inst.Process(ec, port, msg.rows)
		if err != nil {
			ex.failOp(sh, port, err)
			return
		}
		if sh.join != nil {
			ex.emit(rt, worker, out, sh.join.dropped, sh.join.droppedBytes)
		} else {
			ex.emit(rt, worker, out, 0, 0)
		}
		ex.tel.endBatch(rt, worker, t0, in)
		n++
	}
	ex.runq <- sh
}

// retire ends a slot for good and drops its instance; the node's last
// slot to retire completes the node.
func (ex *Execution) retire(sh *workShard) {
	sh.inst, sh.join = nil, nil
	sh.slot.Store(slotDone)
	if rt := sh.ec.rt; rt.live.Add(-1) == 0 {
		ex.complete(rt)
	}
}

// failOp records an operator-attributed error and retires the worker's
// slot.
func (ex *Execution) failOp(sh *workShard, port int, err error) {
	rt := sh.ec.rt
	ex.setState(rt, Failed)
	ex.fail(&OpError{Op: rt.n.name, Worker: sh.ec.worker, Port: port, Err: err})
	ex.retire(sh)
}

// cancelOp ends a worker that stopped because the run's context ended,
// with err that context's error: the node ends Cancelled and the run
// fails. The first error wins, so the OpError whose failOp cancelled
// the run stands.
func (ex *Execution) cancelOp(rt *nodeRuntime, err error) {
	ex.setState(rt, Cancelled)
	ex.fail(err)
}

// finish assembles the result after every node has completed.
func (ex *Execution) finish() {
	if ex.err != nil {
		return
	}
	ex.commitLineage()
	trace := ex.buildTrace()
	if err := ex.annotateShard(trace); err != nil {
		ex.fail(fmt.Errorf("dataflow: shard annotation failed: %w", err))
		return
	}
	jobs, pools, meta, err := lowerWithMeta(trace, ex.model)
	if err != nil {
		ex.fail(fmt.Errorf("dataflow: lowering failed: %w", err))
		return
	}
	var sched *sim.Result
	var recInfo *RecoveryInfo
	if ex.cfg.Faults.Enabled() {
		sched, recInfo, err = scheduleWithFaults(jobs, pools, meta, trace, ex.model, ex.cfg.Faults, ex.cfg.Shard)
	} else {
		sched, err = sim.Schedule(jobs, pools)
	}
	if err != nil {
		ex.fail(fmt.Errorf("dataflow: scheduling failed: %w", err))
		return
	}
	ex.recordTelemetry(jobs, meta, sched)
	ex.recordRecovery(recInfo)
	tables := make(map[string]*relation.Table)
	for _, rt := range ex.rts {
		if rt.n.kind != kindSink {
			continue
		}
		if ex.lin != nil && ex.lin.mode[rt.n.id] == lmSkip {
			// The sink never ran; its cached artifact is the result.
			tables[rt.n.name] = ex.lin.art[rt.n.id].Table
			continue
		}
		tables[rt.n.name] = rt.sinkTable
	}
	var linReport *lineage.RunReport
	if ex.lin != nil {
		linReport = ex.lin.run.Report()
	}
	ex.result = &Result{
		Tables:     tables,
		Trace:      trace,
		SimSeconds: sched.Makespan,
		Recovery:   recInfo,
		Lineage:    linReport,
	}
}

// buildTrace snapshots all runtime counters into a Trace. Under a
// lineage plan the trace reflects what actually happened: skipped
// non-sink nodes are absent, replayed nodes and skipped sinks appear as
// cache views, dirty nodes carry their commit tax in EndWork, and only
// edges that carried data (into executing consumers) remain.
func (ex *Execution) buildTrace() *Trace {
	tr := &Trace{Workflow: ex.wf.name}
	for _, rt := range ex.rts {
		tr.Edges = rt.appendEdges(tr.Edges)
		if ex.lin != nil {
			switch ex.lin.mode[rt.n.id] {
			case lmReplay:
				tr.Nodes = append(tr.Nodes, ex.cacheView(rt, 0, rt.outTuples.Load(), rt.batches.Load()))
				continue
			case lmSkip:
				if rt.n.kind == kindSink {
					// The cached table passes through as one batch.
					rows := int64(ex.lin.art[rt.n.id].Table.Len())
					tr.Nodes = append(tr.Nodes, ex.cacheView(rt, rows, rows, 1))
				}
				continue
			}
		}
		byPort, end, open := rt.mergedWork()
		if ex.lin != nil {
			// Fold the artifact-commit tax into the node's close work.
			end = end.Add(cost.Work{Mem: ex.lin.commitSec[rt.n.id]})
		}
		nt := NodeTrace{
			ID:             rt.n.id,
			Name:           rt.n.name,
			Kind:           rt.n.kind.String(),
			Parallelism:    rt.n.parallelism,
			InTuples:       rt.inTuples.Load(),
			OutTuples:      rt.outTuples.Load(),
			EmittedBatches: rt.batches.Load(),
			WorkByPort:     byPort,
			EndWork:        end,
			OpenWork:       open,
		}
		if rt.n.kind == kindOperator {
			d := rt.n.op.Desc()
			nt.Language = d.Language
			nt.BlockingPorts = append([]bool(nil), d.BlockingPorts...)
			nt.FullyBlocking = d.FullyBlocking()
			switch rt.n.op.(type) {
			case *SortOp, *LimitOp:
				nt.Parallelizable = false
			default:
				nt.Parallelizable = !nt.FullyBlocking
			}
		}
		tr.Nodes = append(tr.Nodes, nt)
	}
	return tr
}

// cacheView is the trace of a node a lineage hit stands in for: one
// source-like worker whose only cost is the artifact fetch.
func (ex *Execution) cacheView(rt *nodeRuntime, in, out, batches int64) NodeTrace {
	return NodeTrace{
		ID:             rt.n.id,
		Name:           rt.n.name,
		Kind:           rt.n.kind.String(),
		Parallelism:    1,
		InTuples:       in,
		OutTuples:      out,
		EmittedBatches: batches,
		WorkByPort:     []cost.Work{{Mem: ex.lin.fetchSec[rt.n.id]}},
	}
}

// appendEdges appends the traces of the node's out-edges that have a
// queue, the ones into a consumer that executes.
func (rt *nodeRuntime) appendEdges(dst []EdgeTrace) []EdgeTrace {
	for i, e := range rt.n.outEdges {
		if !rt.edges[i].live {
			continue
		}
		st := &rt.edges[i].stat
		dst = append(dst, EdgeTrace{
			From:    e.from.id,
			To:      e.to.id,
			Port:    e.port,
			Batches: st.batches.Load(),
			Tuples:  st.tuples.Load(),
			Bytes:   st.bytes.Load(),
		})
	}
	return dst
}
