package dataflow

import (
	"fmt"

	"repro/internal/cost"
	"repro/internal/sim"
)

// Lower converts an execution trace into simulator jobs and pools.
//
// The mapping follows the pipelined-dataflow semantics of the engine:
//
//   - every node gets a pool with one slot per worker, so operator
//     parallelism bounds how many of its batch jobs run concurrently;
//   - each input batch of each port becomes a job whose cost is the
//     node's recorded CPU work for that port (converted through the
//     operator's language) plus deserialization, spread evenly over the
//     port's batches; serialization of a node's output is charged to
//     the jobs that emit it;
//   - a batch job depends on the upstream job that emitted its batch —
//     which is what lets consecutive operators overlap in time
//     (pipelining) — and on a barrier over all earlier ports, because a
//     worker drains ports strictly in order (a join's probe cannot
//     start before its build side is complete);
//   - fully blocking operators (sort, group-by, model training) emit
//     from their end job, so nothing downstream starts until they have
//     consumed all input;
//   - per-node startup jobs and a workflow-submission job model the
//     fixed overheads of the controller.
func Lower(tr *Trace, m *cost.Model) ([]sim.Job, []sim.Pool, error) {
	jobs, pools, _, err := lowerWithMeta(tr, m)
	return jobs, pools, err
}

// jobMeta tags one lowered job with its provenance. The recovery layer
// needs it: checkpoint write taxes apply to data batch jobs, and a
// killed batch job pays a checkpoint restore for its node. So does the
// recorder: a batch job carries no name (a run lowers thousands and,
// with no recorder attached, nobody reads one), only the port and
// sequence number telemetry.BatchName records in its place.
type jobMeta struct {
	// Node is the trace node the job belongs to, or -1 for
	// controller-level jobs (workflow submission).
	Node NodeID
	// Batch marks jobs that process (or generate) one data batch: batch
	// Seq of input port Port, or of a source's output when Port is -1.
	Batch     bool
	Port, Seq int
}

// poolName names a node's worker pool.
func poolName(id NodeID, name string) string { return fmt.Sprintf("n%d:%s", id, name) }

// jobRange is n jobs with consecutive IDs starting at first. Lowering
// numbers a port's batch jobs (and a source's) consecutively, so "the
// jobs of this port" and "the jobs that emit this node's output" are
// ranges, not slices.
type jobRange struct {
	first sim.JobID
	n     int
}

// lowerWithMeta is Lower plus a parallel per-job metadata slice
// (meta[i] describes jobs[i]; job IDs are dense indices).
func lowerWithMeta(tr *Trace, m *cost.Model) ([]sim.Job, []sim.Pool, []jobMeta, error) {
	if tr == nil {
		return nil, nil, nil, fmt.Errorf("dataflow: nil trace")
	}
	if err := m.Validate(); err != nil {
		return nil, nil, nil, err
	}

	nodeByID := make(map[NodeID]*NodeTrace, len(tr.Nodes))
	for i := range tr.Nodes {
		nodeByID[tr.Nodes[i].ID] = &tr.Nodes[i]
	}
	inEdges := make(map[NodeID][]*EdgeTrace)
	outEdges := make(map[NodeID][]*EdgeTrace)
	for i := range tr.Edges {
		e := &tr.Edges[i]
		if _, ok := nodeByID[e.From]; !ok {
			return nil, nil, nil, fmt.Errorf("dataflow: edge from unknown node %d", e.From)
		}
		if _, ok := nodeByID[e.To]; !ok {
			return nil, nil, nil, fmt.Errorf("dataflow: edge to unknown node %d", e.To)
		}
		inEdges[e.To] = append(inEdges[e.To], e)
		outEdges[e.From] = append(outEdges[e.From], e)
	}

	// Job and dependency counts are sums over the trace, so the three
	// slices below are allocated once: per node a startup, an init and a
	// close job plus at most one barrier per port, and per batch one job
	// with two dependencies that a barrier and the close job each list
	// once more.
	const controllerPool = "controller"
	pools := make([]sim.Pool, 1, 1+len(tr.Nodes))
	pools[0] = sim.Pool{Name: controllerPool, Slots: 1}
	poolOf := make(map[NodeID]string, len(tr.Nodes))
	nJobs, nDeps := 1, 0
	for i := range tr.Nodes {
		n := &tr.Nodes[i]
		name := poolName(n.ID, n.Name)
		poolOf[n.ID] = name
		pools = append(pools, sim.Pool{Name: name, Slots: max(n.Parallelism, 1)})
		ins := inEdges[n.ID]
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
	meta := make([]jobMeta, 0, nJobs)
	arena := make([]sim.JobID, 0, nDeps)
	// deps carves one dependency list from the arena: a job, then every
	// job of the given ranges.
	deps := func(first sim.JobID, rest ...jobRange) []sim.JobID {
		start := len(arena)
		arena = append(arena, first)
		for _, r := range rest {
			for k := 0; k < r.n; k++ {
				arena = append(arena, r.first+sim.JobID(k))
			}
		}
		return arena[start:len(arena):len(arena)]
	}
	addJob := func(name, pool string, costSec, latency float64, mt jobMeta, deps []sim.JobID) sim.JobID {
		id := sim.JobID(len(jobs))
		jobs = append(jobs, sim.Job{
			ID: id, Name: name, Pool: pool,
			Cost: costSec, Latency: latency, Deps: deps,
		})
		meta = append(meta, mt)
		return id
	}

	// Workflow submission.
	rootID := addJob("submit:"+tr.Workflow, controllerPool, m.ControlOverhead, 0, jobMeta{Node: -1}, nil)

	// Process nodes in topological order so upstream emit jobs exist
	// when consumers are lowered. Node IDs are assigned in creation
	// order which is not necessarily topological, so sort by
	// dependencies.
	order, err := topoNodeOrder(tr.Nodes, tr.Edges)
	if err != nil {
		return nil, nil, nil, err
	}

	emitJobsOf := make(map[NodeID]jobRange, len(tr.Nodes))
	var portJobs []jobRange // the current node's port jobs, port by port
	for _, nid := range order {
		n := nodeByID[nid]
		pool := poolOf[nid]
		lang := n.Language
		plain := jobMeta{Node: nid}

		startup := addJob("startup:"+n.Name, pool, m.OperatorStartup, 0, plain, deps(rootID))
		// Per-worker initialization (NewInstance): workers initialize in
		// parallel, so the gate costs OpenWork divided by parallelism.
		if open := n.OpenWork.Seconds(lang); open > 0 {
			startup = addJob("init:"+n.Name, pool, open/float64(max(n.Parallelism, 1)), 0, plain, deps(startup))
		}

		ins := make([]*EdgeTrace, 0, len(inEdges[nid]))
		ins = append(ins, inEdges[nid]...)
		// Ports in ascending order.
		for i := 0; i < len(ins); i++ {
			for j := i + 1; j < len(ins); j++ {
				if ins[j].Port < ins[i].Port {
					ins[i], ins[j] = ins[j], ins[i]
				}
			}
		}

		// Output serialization: the engine serializes a node's output
		// once per out edge (each consumer link carries its own copy).
		var outBytes int64
		for _, e := range outEdges[nid] {
			outBytes += e.Bytes
		}
		encodeTotal := m.SerdeSeconds(outBytes)

		portJobs = portJobs[:0]
		var lastPortJobs jobRange
		prevBarrier := startup
		for pi, e := range ins {
			work := 0.0
			if e.Port < len(n.WorkByPort) {
				work = n.WorkByPort[e.Port].Seconds(lang)
			}
			decode := m.SerdeSeconds(e.Bytes)
			b := int(e.Batches)
			upstream := emitJobsOf[e.From]
			port := jobRange{first: sim.JobID(len(jobs))}
			if b > 0 {
				perJob := (work + decode) / float64(b)
				// Batch latency: the node-local transfer plus, on the
				// sharded tier, the exchange's cross-node scatter at the
				// same NIC rate. ShuffleBytes is zero on the legacy tier,
				// so this lowers bit-identically to the single-cluster
				// path there.
				latency := m.TransferSeconds(e.Bytes/int64(b)) + m.ShuffleSeconds(e.ShuffleBytes/int64(b))
				for j := 0; j < b; j++ {
					var up jobRange // the upstream job that emitted batch j, if any
					if upstream.n > 0 {
						up = jobRange{upstream.first + sim.JobID(min(j, upstream.n-1)), 1}
					}
					addJob("", pool, perJob, latency, jobMeta{Node: nid, Batch: true, Port: e.Port, Seq: j}, deps(prevBarrier, up))
				}
				port.n = b
			} else if upstream.n > 0 {
				// Empty stream: a zero-cost job keeps the dependency on
				// the upstream end-of-stream.
				last := jobRange{upstream.first + sim.JobID(upstream.n-1), 1}
				addJob(fmt.Sprintf("%s:p%d:eos", n.Name, e.Port), pool, 0, 0, plain, deps(prevBarrier, last))
				port.n = 1
			}
			portJobs = append(portJobs, port)
			lastPortJobs = port
			// Barrier: later ports wait for this whole port (workers
			// drain ports in order).
			if pi < len(ins)-1 {
				prevBarrier = addJob(fmt.Sprintf("%s:p%d:end", n.Name, e.Port), pool, 0, 0, plain, deps(prevBarrier, port))
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
				lastPortJobs = jobRange{sim.JobID(len(jobs)), b}
				portJobs = append(portJobs, lastPortJobs)
				for j := 0; j < b; j++ {
					addJob("", pool, perJob, 0, jobMeta{Node: nid, Batch: true, Port: -1, Seq: j}, deps(startup))
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
			for k := 0; k < lastPortJobs.n; k++ {
				jobs[int(lastPortJobs.first)+k].Cost += share
			}
		}
		endID := addJob(n.Name+":close", pool, endCost, 0, plain, deps(startup, portJobs...))

		if n.FullyBlocking || lastPortJobs.n == 0 {
			emitJobsOf[nid] = jobRange{endID, 1}
		} else {
			emitJobsOf[nid] = lastPortJobs
		}
	}

	return jobs, pools, meta, nil
}

// topoNodeOrder sorts trace node IDs topologically.
func topoNodeOrder(nodes []NodeTrace, edges []EdgeTrace) ([]NodeID, error) {
	indeg := make(map[NodeID]int, len(nodes))
	adj := make(map[NodeID][]NodeID)
	for _, n := range nodes {
		indeg[n.ID] = 0
	}
	for _, e := range edges {
		indeg[e.To]++
		adj[e.From] = append(adj[e.From], e.To)
	}
	var queue []NodeID
	for _, n := range nodes {
		if indeg[n.ID] == 0 {
			queue = append(queue, n.ID)
		}
	}
	var order []NodeID
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		order = append(order, id)
		for _, to := range adj[id] {
			indeg[to]--
			if indeg[to] == 0 {
				queue = append(queue, to)
			}
		}
	}
	if len(order) != len(nodes) {
		return nil, fmt.Errorf("dataflow: trace contains a cycle")
	}
	return order, nil
}

// SimTime lowers a trace and schedules it, returning the simulated
// makespan.
func SimTime(tr *Trace, m *cost.Model) (float64, error) {
	jobs, pools, err := Lower(tr, m)
	if err != nil {
		return 0, err
	}
	res, err := sim.Schedule(jobs, pools)
	if err != nil {
		return 0, err
	}
	return res.Makespan, nil
}
