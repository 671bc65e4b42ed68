package dataflow

import (
	"fmt"

	"repro/internal/cost"
	"repro/internal/faults"
	"repro/internal/shard"
	"repro/internal/sim"
)

// The lowering and fault scheduling the job groups replaced, kept
// verbatim (renamed) as the oracle FuzzLowerMatchesReference holds
// lower, Lower and scheduleWithFaults to: one sim.Job with its own
// Deps slice and one refJobMeta per job, the fault layer's checkpoint
// tax added job by job. The only edit is the call into the fault plan,
// which now takes a sim.Graph and is asked for every span.

// refJobMeta tags one lowered job with its provenance. The recovery layer
// needs it: checkpoint write taxes apply to data batch jobs, and a
// killed batch job pays a checkpoint restore for its node. So does the
// recorder, which names a job only when it records its span (a run
// lowers thousands and, with no recorder attached, nobody reads a
// name): a batch job from its port and sequence number
// (telemetry.BatchName), any other job by name.
type refJobMeta struct {
	// Node is the ID of the trace node the job belongs to, or -1 for
	// controller-level jobs (workflow submission).
	Node int32
	// Port is the input port of a batch, end-of-stream or port-end job
	// (-1 for a source's generated batch); Seq is a batch's sequence
	// number on it.
	Port, Seq int32
	Kind      jobKind
}

// name is the name a recorded span gives a job that is not a batch;
// node names its node, or the workflow for the submission job.
func (mt refJobMeta) name(node string) string {
	switch mt.Kind {
	case jobSubmit:
		return "submit:" + node
	case jobStartup:
		return "startup:" + node
	case jobInit:
		return "init:" + node
	case jobEOS:
		return fmt.Sprintf("%s:p%d:eos", node, mt.Port)
	case jobPortEnd:
		return fmt.Sprintf("%s:p%d:end", node, mt.Port)
	}
	return node + ":close"
}

// refJobRange is n jobs with consecutive IDs starting at first. Lowering
// numbers a port's batch jobs (and a source's) consecutively, so "the
// jobs of this port" and "the jobs that emit this node's output" are
// ranges, not slices.
type refJobRange struct {
	first sim.JobID
	n     int
}

// refLowerWithMeta is Lower plus a parallel per-job metadata slice
// (meta[i] describes job i).
func refLowerWithMeta(tr *Trace, m *cost.Model) ([]sim.Job, []sim.Pool, []refJobMeta, error) {
	if tr == nil {
		return nil, nil, nil, fmt.Errorf("dataflow: nil trace")
	}
	if err := m.Validate(); err != nil {
		return nil, nil, nil, err
	}

	// Everything per node below is indexed by the node's position.
	at, err := nodePositions(tr)
	if err != nil {
		return nil, nil, nil, err
	}
	pos := func(id NodeID) int32 {
		if id < 0 || int(id) >= len(at) {
			return -1
		}
		return at[id]
	}
	inEdges := make([][]*EdgeTrace, len(tr.Nodes))
	outBytes := make([]int64, len(tr.Nodes))
	for i := range tr.Edges {
		e := &tr.Edges[i]
		from, to := pos(e.From), pos(e.To)
		if from < 0 {
			return nil, nil, nil, fmt.Errorf("dataflow: edge from unknown node %d", e.From)
		}
		if to < 0 {
			return nil, nil, nil, fmt.Errorf("dataflow: edge to unknown node %d", e.To)
		}
		inEdges[to] = append(inEdges[to], e)
		// The engine serializes a node's output once per out edge (each
		// consumer link carries its own copy).
		outBytes[from] += e.Bytes
	}

	// Job and dependency counts are sums over the trace, so the three
	// slices below are allocated once: per node a startup, an init and a
	// close job plus at most one barrier per port, and per batch one job
	// with two dependencies that a barrier and the close job each list
	// once more.
	pools := make([]sim.Pool, 1, 1+len(tr.Nodes))
	pools[0] = sim.Pool{Name: controllerPool, Slots: 1}
	nJobs, nDeps := 1, 0
	for k := range tr.Nodes {
		n := &tr.Nodes[k]
		pools = append(pools, sim.Pool{Name: poolName(n.ID, n.Name), Slots: max(n.Parallelism, 1)})
		ins := inEdges[k]
		batches := 0
		for _, e := range ins {
			batches += max(int(e.Batches), 1) // an empty stream still gets its end-of-stream job
		}
		if len(ins) == 0 {
			batches = max(int(n.EmittedBatches), 0)
		}
		nJobs += 3 + len(ins) + batches
		nDeps += 3 + len(ins) + 4*batches
	}

	jobs := make([]sim.Job, 0, nJobs)
	meta := make([]refJobMeta, 0, nJobs)
	arena := make([]sim.JobID, 0, nDeps)
	// deps carves one dependency list from the arena: a job, then every
	// job of the given ranges.
	deps := func(first sim.JobID, rest ...refJobRange) []sim.JobID {
		start := len(arena)
		arena = append(arena, first)
		for _, r := range rest {
			for k := 0; k < r.n; k++ {
				arena = append(arena, r.first+sim.JobID(k))
			}
		}
		return arena[start:len(arena):len(arena)]
	}
	addJob := func(pool int32, costSec, latency float64, mt refJobMeta, deps []sim.JobID) sim.JobID {
		id := sim.JobID(len(jobs))
		jobs = append(jobs, sim.Job{Pool: pool, Cost: costSec, Latency: latency, Deps: deps})
		meta = append(meta, mt)
		return id
	}

	// Workflow submission.
	rootID := addJob(0, m.ControlOverhead, 0, refJobMeta{Node: -1, Kind: jobSubmit}, nil)

	// Process nodes in topological order so upstream emit jobs exist
	// when consumers are lowered. Node IDs are assigned in creation
	// order which is not necessarily topological, so sort by
	// dependencies.
	order, err := topoNodeOrder(tr, at)
	if err != nil {
		return nil, nil, nil, err
	}

	emitJobsOf := make([]refJobRange, len(tr.Nodes))
	var portJobs []refJobRange // the current node's port jobs, port by port
	for _, k := range order {
		n := &tr.Nodes[k]
		pool := k + 1
		lang := n.Language
		nid := int32(n.ID)

		startup := addJob(pool, m.OperatorStartup, 0, refJobMeta{Node: nid, Kind: jobStartup}, deps(rootID))
		// Per-worker initialization (NewInstance): workers initialize in
		// parallel, so the gate costs OpenWork divided by parallelism.
		if open := n.OpenWork.Seconds(lang); open > 0 {
			startup = addJob(pool, open/float64(max(n.Parallelism, 1)), 0, refJobMeta{Node: nid, Kind: jobInit}, deps(startup))
		}

		// Ports in ascending order.
		ins := inEdges[k]
		for i := 0; i < len(ins); i++ {
			for j := i + 1; j < len(ins); j++ {
				if ins[j].Port < ins[i].Port {
					ins[i], ins[j] = ins[j], ins[i]
				}
			}
		}

		// Output serialization.
		encodeTotal := m.SerdeSeconds(outBytes[k])

		portJobs = portJobs[:0]
		var lastPortJobs refJobRange
		prevBarrier := startup
		for pi, e := range ins {
			work := 0.0
			if e.Port < len(n.WorkByPort) {
				work = n.WorkByPort[e.Port].Seconds(lang)
			}
			decode := m.SerdeSeconds(e.Bytes)
			b := int(e.Batches)
			upstream := emitJobsOf[at[e.From]]
			port := refJobRange{first: sim.JobID(len(jobs))}
			if b > 0 {
				perJob := (work + decode) / float64(b)
				// Batch latency: the node-local transfer plus, on the
				// sharded tier, the exchange's cross-node scatter at the
				// same NIC rate. ShuffleBytes is zero on the legacy tier,
				// so this lowers bit-identically to the single-cluster
				// path there.
				latency := m.TransferSeconds(e.Bytes/int64(b)) + m.ShuffleSeconds(e.ShuffleBytes/int64(b))
				for j := 0; j < b; j++ {
					var up refJobRange // the upstream job that emitted batch j, if any
					if upstream.n > 0 {
						up = refJobRange{upstream.first + sim.JobID(min(j, upstream.n-1)), 1}
					}
					addJob(pool, perJob, latency, refJobMeta{Node: nid, Port: int32(e.Port), Seq: int32(j)}, deps(prevBarrier, up))
				}
				port.n = b
			} else if upstream.n > 0 {
				// Empty stream: a zero-cost job keeps the dependency on
				// the upstream end-of-stream.
				last := refJobRange{upstream.first + sim.JobID(upstream.n-1), 1}
				addJob(pool, 0, 0, refJobMeta{Node: nid, Port: int32(e.Port), Kind: jobEOS}, deps(prevBarrier, last))
				port.n = 1
			}
			portJobs = append(portJobs, port)
			lastPortJobs = port
			// Barrier: later ports wait for this whole port (workers
			// drain ports in order).
			if pi < len(ins)-1 {
				prevBarrier = addJob(pool, 0, 0, refJobMeta{Node: nid, Port: int32(e.Port), Kind: jobPortEnd}, deps(prevBarrier, port))
			}
		}

		// Source nodes have no input edges; their generation work is
		// in WorkByPort[0], spread over emitted batches.
		if len(ins) == 0 {
			b := int(n.EmittedBatches)
			work := 0.0
			if len(n.WorkByPort) > 0 {
				work = n.WorkByPort[0].Seconds(lang)
			}
			if b > 0 {
				perJob := (work + encodeTotal) / float64(b)
				lastPortJobs = refJobRange{sim.JobID(len(jobs)), b}
				portJobs = append(portJobs, lastPortJobs)
				for j := 0; j < b; j++ {
					addJob(pool, perJob, 0, refJobMeta{Node: nid, Port: -1, Seq: int32(j)}, deps(startup))
				}
			}
			encodeTotal = 0 // already charged
		}

		// End job: EndPort work plus, for fully blocking
		// operators, the whole output serialization. SpillSeconds folds
		// in the grace build/probe passes a larger-than-memory operator
		// paid on the sharded tier (zero elsewhere).
		endCost := n.EndWork.Seconds(lang) + n.SpillSeconds
		if n.FullyBlocking {
			endCost += encodeTotal
		} else if lastPortJobs.n > 0 && encodeTotal > 0 {
			// Streaming operators serialize as they emit: spread the
			// encode cost over the emitting jobs by appending it to
			// their costs.
			share := encodeTotal / float64(lastPortJobs.n)
			for j := 0; j < lastPortJobs.n; j++ {
				jobs[int(lastPortJobs.first)+j].Cost += share
			}
		}
		endID := addJob(pool, endCost, 0, refJobMeta{Node: nid, Kind: jobClose}, deps(startup, portJobs...))

		if n.FullyBlocking || lastPortJobs.n == 0 {
			emitJobsOf[k] = refJobRange{endID, 1}
		} else {
			emitJobsOf[k] = lastPortJobs
		}
	}

	return jobs, pools, meta, nil
}

// refScheduleWithFaults schedules lowered jobs under the execution's
// fault plan. It mutates jobs in place: each node's checkpoint write
// cost is spread as a tax over its batch jobs, so the same slice feeds
// telemetry with taxed costs. The failure-free (but taxed) schedule
// fixes the fault horizon; killed jobs retry after an OperatorStartup
// respawn delay, batch jobs additionally paying one epoch's restore
// read.
func refScheduleWithFaults(jobs []sim.Job, pools []sim.Pool, meta []refJobMeta, tr *Trace, m *cost.Model, plan faults.Plan, topo shard.Topology) (*sim.Result, *RecoveryInfo, error) {
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
	for _, mt := range meta {
		if mt.Kind == jobBatch {
			batches[mt.Node]++
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
	for i, mt := range meta {
		if mt.Kind == jobBatch {
			jobs[i].Cost += tax[mt.Node]
		}
	}

	// The checkpoint tax is folded in before the plan schedules, so the
	// taxed failure-free schedule fixes the fault horizon. A fault may
	// strike whichever operator's worker is running; node-level faults
	// recover the same way (state lives in the checkpoint store, not on
	// the node) except for the re-shard below.
	sched, err := plan.Schedule(sim.OfJobs(jobs), pools, sim.RetryPolicy{
		// The controller respawns the worker before the retry runs; the
		// engine does not back off.
		Delay: func(sim.JobID, int) float64 { return m.OperatorStartup },
		ExtraCost: func(id sim.JobID, _ int, objectsLost bool) float64 {
			mt := meta[id]
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
	}, true)
	if err != nil {
		return nil, nil, err
	}
	info.Kills = sched.Recovery.Kills
	info.LostSeconds = sched.Recovery.LostSeconds
	info.DelaySeconds = sched.Recovery.DelaySeconds
	info.RestoreSeconds = sched.Recovery.ExtraCostSeconds
	return sched, info, nil
}
