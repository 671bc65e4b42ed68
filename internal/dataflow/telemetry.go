package dataflow

import (
	"fmt"
	"strings"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// execTelemetry bundles the recorder and the pre-registered instruments
// the executor's hot path writes. It is built once at Start when a
// recorder is attached; a nil *execTelemetry is the telemetry-off fast
// path (beginBatch and endBatch each check the pointer once per batch
// and return).
type execTelemetry struct {
	rec *telemetry.Recorder
	// batches/tuples count operator Process invocations and their rows
	// — deterministic, they appear in the metrics dump.
	batches *telemetry.Counter
	tuples  *telemetry.Counter
	// batchNS is the wall-clock latency of each operator invocation;
	// qDepth samples input-queue depth after each pop. Both are
	// volatile profiling instruments.
	batchNS *telemetry.Histogram
	qDepth  *telemetry.Gauge
	qHist   *telemetry.Histogram
}

// newExecTelemetry registers the execution's hot-path instruments.
func newExecTelemetry(rec *telemetry.Recorder, wf string) *execTelemetry {
	if rec == nil {
		return nil
	}
	reg := rec.Metrics
	p := "wf." + wf + "."
	return &execTelemetry{
		rec:     rec,
		batches: reg.Counter(p + "exec.batches"),
		tuples:  reg.Counter(p + "exec.tuples"),
		batchNS: reg.Histogram(p+"exec.batch_wall", "ns"),
		qDepth:  reg.Gauge(p + "exec.queue_depth"),
		qHist:   reg.Histogram(p+"exec.queue_depth_dist", "batches"),
	}
}

// wallShard is one worker's private wall-clock accumulator, padded
// like the work shards; it is written with plain stores by the runner
// stepping its worker and merged after every node has completed.
type wallShard struct {
	firstNS int64
	lastNS  int64
	busyNS  int64
	batches int64
	_       [32]byte
}

// note records one invocation's wall interval on a shard.
func (sh *wallShard) note(t0, t1 int64) {
	if sh.batches == 0 || t0 < sh.firstNS {
		sh.firstNS = t0
	}
	if t1 > sh.lastNS {
		sh.lastNS = t1
	}
	sh.busyNS += t1 - t0
	sh.batches++
}

// beginBatch stamps the start of one batch a node's worker handles and,
// for a batch popped from q (nil for a scan), samples that queue's
// depth. It returns the start stamp for endBatch; a nil receiver
// (telemetry off) records nothing.
func (t *execTelemetry) beginBatch(q *queue) int64 {
	if t == nil {
		return 0
	}
	t0 := t.rec.NowNS()
	if q != nil {
		depth := int64(q.Depth())
		t.qDepth.Set(depth)
		t.qHist.Observe(depth)
	}
	return t0
}

// endBatch closes a batch begun at t0 that carried tuples rows: it
// notes the worker's wall interval and counts the batch, its rows and
// its latency.
func (t *execTelemetry) endBatch(rt *nodeRuntime, worker int, t0, tuples int64) {
	if t == nil {
		return
	}
	t1 := t.rec.NowNS()
	rt.wall[worker].note(t0, t1)
	t.batches.Add(1)
	t.tuples.Add(tuples)
	t.batchNS.Observe(t1 - t0)
}

// trackCat labels a node's spans for export.
func trackCat(kind nodeKind) string {
	switch kind {
	case kindSource:
		return "source"
	case kindSink:
		return "sink"
	default:
		return "operator"
	}
}

// recordTelemetry converts the finished execution into telemetry:
// per-invocation spans with virtual-clock stamps from the schedule,
// per-node wall spans from the live wall shards, deterministic
// per-edge and per-node counters, and a critical-path breakdown.
func (ex *Execution) recordTelemetry(lw *lowering, sched *sim.Result) {
	tel := ex.tel
	if tel == nil {
		return
	}
	proc := "workflow:" + ex.wf.name
	reg := tel.rec.Metrics
	prefix := "wf." + ex.wf.name + "."

	// One lane per node, indexed by trace node ID, and the
	// controller's. A job is named here, from its group's metadata; a
	// batch job only when the trace is read.
	rec := tel.rec
	lanes := make([]telemetry.Lane, len(ex.rts))
	for i, rt := range ex.rts {
		lanes[i] = rec.Lane(proc, rt.n.name, trackCat(rt.n.kind))
	}
	controller := rec.Lane(proc, "controller", "control")
	g := lw.graph()
	rec.RecordSchedule(g, sched, func(i int) (telemetry.Lane, telemetry.JobName) {
		mt, seq := lw.job(sim.JobID(i))
		switch {
		case mt.Node < 0:
			return controller, telemetry.Named(mt.name(ex.wf.name))
		case mt.Kind == jobBatch:
			return lanes[mt.Node], telemetry.BatchName(int(mt.Port), seq)
		}
		return lanes[mt.Node], telemetry.Named(mt.name(ex.rts[mt.Node].n.name))
	})

	// Per-node wall spans (volatile): busy time anchored at the node's
	// first activity, one span per active worker shard.
	for _, rt := range ex.rts {
		wall := rec.Lane(proc, rt.n.name, "wall")
		for w := range rt.wall {
			sh := &rt.wall[w]
			if sh.batches == 0 {
				continue
			}
			rec.RecordWall(wall, w, sh.batches, telemetry.Wall{StartNS: sh.firstNS, DurNS: sh.busyNS})
		}
	}

	// Deterministic data-volume counters, per node and per edge.
	for _, rt := range ex.rts {
		node := prefix + "node." + rt.n.name + "."
		reg.Counter(node + "in_tuples").Add(rt.inTuples.Load())
		reg.Counter(node + "out_tuples").Add(rt.outTuples.Load())
		reg.Counter(node + "batches").Add(rt.batches.Load())
		if ex.lin != nil && ex.lin.mode[rt.n.id] != lmDirty {
			reg.Counter(node + "lineage_hit").Add(1)
		}
		for i, e := range rt.n.outEdges {
			st := &rt.edges[i].stat
			edge := fmt.Sprintf("%sedge.%s->%s.p%d.", prefix, e.from.name, e.to.name, e.port)
			reg.Counter(edge + "batches").Add(st.batches.Load())
			reg.Counter(edge + "tuples").Add(st.tuples.Load())
			reg.Counter(edge + "bytes").Add(st.bytes.Load())
		}
	}

	// Critical-path breakdown: walk the longest chain and attribute its
	// time per track.
	tel.rec.AddCritical(telemetry.CriticalRows(proc, g, func(i int) string {
		if mt, _ := lw.job(sim.JobID(i)); mt.Node >= 0 {
			return ex.rts[mt.Node].n.name
		}
		return "controller"
	})...)

	tel.rec.SetMeta(strings.TrimSuffix(prefix, ".")+".makespan", fmt.Sprintf("%.6f", sched.Makespan))
	tel.rec.SetMeta(strings.TrimSuffix(prefix, ".")+".nodes", fmt.Sprintf("%d", len(ex.rts)))
}

// recordRecovery exports the checkpoint and fault-recovery accounting
// of an execution that ran under a fault plan.
func (ex *Execution) recordRecovery(info *RecoveryInfo) {
	tel := ex.tel
	if tel == nil || info == nil {
		return
	}
	prefix := "wf." + ex.wf.name + ".recovery."
	reg := tel.rec.Metrics
	reg.Counter(prefix + "checkpoints").Add(int64(info.Checkpoints))
	reg.Counter(prefix + "checkpoint_bytes").Add(info.CheckpointBytes)
	reg.Counter(prefix + "kills").Add(int64(info.Kills))
	tel.rec.SetMeta(prefix+"checkpoint_write_seconds", fmt.Sprintf("%.6f", info.CheckpointWriteSeconds))
	tel.rec.SetMeta(prefix+"lost_seconds", fmt.Sprintf("%.6f", info.LostSeconds))
	tel.rec.SetMeta(prefix+"respawn_seconds", fmt.Sprintf("%.6f", info.DelaySeconds))
	tel.rec.SetMeta(prefix+"restore_seconds", fmt.Sprintf("%.6f", info.RestoreSeconds))
}
