package dataflow

import (
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/faults"
	"repro/internal/shard"
	"repro/internal/sim"
)

// The dataflow engine recovers the way Texera-style workflow systems
// do: every operator writes its state to replicated checkpoint storage
// at epoch boundaries (every CheckpointEvery batches, aligned with the
// executor's batch-boundary pause gate), and when a worker is killed
// the controller respawns it, restores the last epoch's state, and
// replays the in-flight batch. Recovery therefore costs a continuous
// write tax even on failure-free runs — the opposite trade from the
// script paradigm's lineage replay, which is free until a fault
// strikes. Faults perturb only the simulated schedule; the data path
// has already completed when the schedule is built, so sink tables and
// their digests are bit-identical to the failure-free run.

// DefaultCheckpointEvery is the epoch length in batches when the fault
// plan arms checkpointing without choosing one.
const DefaultCheckpointEvery = 4

// sourceStateBytes approximates a source's checkpointed bookkeeping
// (scan offsets, batch cursors) — sources re-read their table rather
// than checkpointing it.
const sourceStateBytes = 64 << 10

// checkpointBytes is the state a node checkpoints given the bytes that
// crossed into it: that accumulated operator state, or, for a node
// nothing has reached (a source, or a consumer whose producers emitted
// nothing), bookkeeping only.
func checkpointBytes(inBytes int64) int64 {
	if inBytes == 0 {
		return sourceStateBytes
	}
	return inBytes
}

// RecoveryInfo summarises the fault-tolerance work of one execution.
type RecoveryInfo struct {
	// CheckpointEvery is the epoch length in batches actually used.
	CheckpointEvery int
	// Checkpoints counts epoch snapshots across all nodes;
	// CheckpointBytes and CheckpointWriteSeconds total their size and
	// simulated write cost (paid even with zero faults).
	Checkpoints            int
	CheckpointBytes        int64
	CheckpointWriteSeconds float64
	// Kills counts aborted jobs; LostSeconds is discarded partial work,
	// DelaySeconds is worker-respawn wait, RestoreSeconds is checkpoint
	// read-back charged to retried batch jobs.
	Kills          int
	LostSeconds    float64
	DelaySeconds   float64
	RestoreSeconds float64
}

// scheduleWithFaults schedules a lowering under the execution's fault
// plan, with every job's span when spans is set. It mutates lw's
// groups in place: each node's checkpoint write cost is spread as a tax
// over its batch jobs, so the same groups feed telemetry with taxed
// costs. The failure-free (but taxed) schedule fixes the fault horizon;
// killed jobs retry after an OperatorStartup respawn delay, batch jobs
// additionally paying one epoch's restore read.
func scheduleWithFaults(lw *lowering, tr *Trace, m *cost.Model, plan faults.Plan, topo shard.Topology, spans bool) (*sim.Result, *RecoveryInfo, error) {
	every := plan.CheckpointEvery
	if every <= 0 {
		every = DefaultCheckpointEvery
	}
	info := &RecoveryInfo{CheckpointEvery: every}

	// Per-node tables, indexed by node ID.
	ids := 0
	for i := range tr.Nodes {
		ids = max(ids, int(tr.Nodes[i].ID)+1)
	}
	// State size (checkpointBytes of the node's in-bytes).
	stateBytes := make([]int64, ids)
	for i := range tr.Edges {
		stateBytes[tr.Edges[i].To] += tr.Edges[i].Bytes
	}
	for i := range tr.Nodes {
		id := tr.Nodes[i].ID
		stateBytes[id] = checkpointBytes(stateBytes[id])
	}
	// Batch jobs.
	batches := make([]int, ids)
	for k, mt := range lw.meta {
		if mt.Kind == jobBatch {
			batches[mt.Node] += int(lw.groups[k].Count)
		}
	}

	// Tax each node's batch jobs with its checkpoint writes and price
	// its per-retry restore (one epoch's state delta read back).
	tax := make([]float64, ids)
	restoreSecs := make([]float64, ids)
	for i := range tr.Nodes {
		nid := tr.Nodes[i].ID
		n := batches[nid]
		if n == 0 {
			continue
		}
		epochs := (n + every - 1) / every
		bytes := stateBytes[nid]
		writeSecs := m.CheckpointPutSeconds(bytes)
		tax[nid] = writeSecs / float64(n)
		epochBytes := bytes / int64(epochs)
		restoreSecs[nid] = m.CheckpointGetSeconds(epochBytes)
		info.Checkpoints += epochs
		info.CheckpointBytes += bytes
		info.CheckpointWriteSeconds += writeSecs
	}
	for k, mt := range lw.meta {
		if mt.Kind == jobBatch {
			lw.groups[k].Cost += tax[mt.Node]
		}
	}

	// The checkpoint tax is folded in before the plan schedules, so the
	// taxed failure-free schedule fixes the fault horizon. A fault may
	// strike whichever operator's worker is running; node-level faults
	// recover the same way (state lives in the checkpoint store, not on
	// the node) except for the re-shard below.
	sched, err := plan.Schedule(lw.graph(), lw.pools, sim.RetryPolicy{
		// The controller respawns the worker before the retry runs; the
		// engine does not back off.
		Delay: func(sim.JobID, int) float64 { return m.OperatorStartup },
		ExtraCost: func(id sim.JobID, _ int, objectsLost bool) float64 {
			mt, _ := lw.job(id)
			if mt.Kind != jobBatch {
				return 0
			}
			extra := restoreSecs[mt.Node]
			// Whole-node loss on the sharded tier re-shards the dead
			// node's datum range across the survivors: its 1/N share of
			// the operator's state re-crosses the NIC before the replayed
			// batch can run. On the legacy tier the checkpoint store
			// alone recovers it (no placement to rebuild).
			if objectsLost && topo.Sharded() {
				extra += m.ShuffleSeconds(stateBytes[mt.Node] / int64(topo.NumNodes()))
			}
			return extra
		},
	}, spans)
	if err != nil {
		return nil, nil, err
	}
	info.Kills = sched.Recovery.Kills
	info.LostSeconds = sched.Recovery.LostSeconds
	info.DelaySeconds = sched.Recovery.DelaySeconds
	info.RestoreSeconds = sched.Recovery.ExtraCostSeconds
	return sched, info, nil
}

// Totals folds the recovery report into the framework's comparable
// scalars, mirroring Trace.Totals; a nil receiver (fault-free run)
// folds to zero.
func (ri *RecoveryInfo) Totals() core.RecoveryTotals {
	if ri == nil {
		return core.RecoveryTotals{}
	}
	return core.RecoveryTotals{
		Kills:             ri.Kills,
		Checkpoints:       ri.Checkpoints,
		LostSeconds:       ri.LostSeconds,
		DelaySeconds:      ri.DelaySeconds,
		RestoreSeconds:    ri.RestoreSeconds,
		CheckpointSeconds: ri.CheckpointWriteSeconds,
	}
}

// NodeCheckpoint is one node's share of a Checkpoint.
type NodeCheckpoint struct {
	Name       string
	StateBytes int64
}

// Checkpoint summarises one consistent snapshot of a running
// execution.
type Checkpoint struct {
	Nodes        []NodeCheckpoint
	TotalBytes   int64
	WriteSeconds float64
}

// CheckpointNow takes a consistent snapshot of a running execution at
// the next batch boundary: it pauses the execution through the same
// gate the Pause API uses (workers quiesce between batches, so no
// tuple is in flight), snapshots every node's accumulated state from
// the per-edge byte counters, prices the write, and resumes. An
// execution the caller already paused stays paused.
//
//lint:allow testonly Texera's mid-run checkpoint, taken through the pause gate
func (ex *Execution) CheckpointNow() Checkpoint {
	if ex.gate.pause() {
		defer ex.gate.resume()
	}
	inBytes := make([]int64, len(ex.rts))
	for _, rt := range ex.rts {
		for i, e := range rt.n.outEdges {
			inBytes[e.to.id] += rt.edges[i].stat.bytes.Load()
		}
	}
	cp := Checkpoint{Nodes: make([]NodeCheckpoint, 0, len(ex.rts))}
	for _, rt := range ex.rts {
		bytes := checkpointBytes(inBytes[rt.n.id])
		cp.Nodes = append(cp.Nodes, NodeCheckpoint{Name: rt.n.name, StateBytes: bytes})
		cp.TotalBytes += bytes
	}
	cp.WriteSeconds = ex.model.CheckpointPutSeconds(cp.TotalBytes)
	return cp
}
