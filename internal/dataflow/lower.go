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
// recorder, which names a job only when it records its span (a run
// lowers thousands and, with no recorder attached, nobody reads a
// name): a batch job from its port and sequence number
// (telemetry.BatchName), any other job by name.
type jobMeta struct {
	// Node is the ID of the trace node the job belongs to, or -1 for
	// controller-level jobs (workflow submission).
	Node int32
	// Port is the input port of a batch, end-of-stream or port-end job
	// (-1 for a source's generated batch); Seq is a batch's sequence
	// number on it.
	Port, Seq int32
	Kind      jobKind
}

// jobKind is what a lowered job stands for.
type jobKind uint8

const (
	jobBatch   jobKind = iota // processes (or generates) one data batch
	jobSubmit                 // the workflow's submission, on the controller
	jobStartup                // a node's startup
	jobInit                   // a node's per-worker initialization
	jobEOS                    // an empty input port's end of stream
	jobPortEnd                // the barrier after an input port
	jobClose                  // a node's EndPort work
)

// name is the name a recorded span gives a job that is not a batch;
// node names its node, or the workflow for the submission job.
func (mt jobMeta) name(node string) string {
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

// poolName names a node's worker pool.
func poolName(id NodeID, name string) string { return fmt.Sprintf("n%d:%s", id, name) }

// controllerPool is pool 0 of every lowering; the node at position k of
// the trace has pool k+1.
const controllerPool = "controller"

// jobRange is n jobs with consecutive IDs starting at first. Lowering
// numbers a port's batch jobs (and a source's) consecutively, so "the
// jobs of this port" and "the jobs that emit this node's output" are
// ranges, not slices.
type jobRange struct {
	first sim.JobID
	n     int
}

// nodePositions maps each node ID of tr to the node's position in
// tr.Nodes, -1 where no node has the ID: a trace under a lineage plan
// leaves out the nodes it skipped, so its IDs need not be dense.
func nodePositions(tr *Trace) ([]int32, error) {
	bound := NodeID(0)
	for i := range tr.Nodes {
		id := tr.Nodes[i].ID
		if id < 0 {
			return nil, fmt.Errorf("dataflow: negative node ID %d", id)
		}
		bound = max(bound, id+1)
	}
	at := make([]int32, bound)
	for i := range at {
		at[i] = -1
	}
	for i := range tr.Nodes {
		id := tr.Nodes[i].ID
		if at[id] >= 0 {
			return nil, fmt.Errorf("dataflow: duplicate node ID %d", id)
		}
		at[id] = int32(i)
	}
	return at, nil
}

// lowerWithMeta is Lower plus a parallel per-job metadata slice
// (meta[i] describes job i).
func lowerWithMeta(tr *Trace, m *cost.Model) ([]sim.Job, []sim.Pool, []jobMeta, error) {
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
	addJob := func(pool int32, costSec, latency float64, mt jobMeta, deps []sim.JobID) sim.JobID {
		id := sim.JobID(len(jobs))
		jobs = append(jobs, sim.Job{Pool: pool, Cost: costSec, Latency: latency, Deps: deps})
		meta = append(meta, mt)
		return id
	}

	// Workflow submission.
	rootID := addJob(0, m.ControlOverhead, 0, jobMeta{Node: -1, Kind: jobSubmit}, nil)

	// Process nodes in topological order so upstream emit jobs exist
	// when consumers are lowered. Node IDs are assigned in creation
	// order which is not necessarily topological, so sort by
	// dependencies.
	order, err := topoNodeOrder(tr, at)
	if err != nil {
		return nil, nil, nil, err
	}

	emitJobsOf := make([]jobRange, len(tr.Nodes))
	var portJobs []jobRange // the current node's port jobs, port by port
	for _, k := range order {
		n := &tr.Nodes[k]
		pool := k + 1
		lang := n.Language
		nid := int32(n.ID)

		startup := addJob(pool, m.OperatorStartup, 0, jobMeta{Node: nid, Kind: jobStartup}, deps(rootID))
		// Per-worker initialization (NewInstance): workers initialize in
		// parallel, so the gate costs OpenWork divided by parallelism.
		if open := n.OpenWork.Seconds(lang); open > 0 {
			startup = addJob(pool, open/float64(max(n.Parallelism, 1)), 0, jobMeta{Node: nid, Kind: jobInit}, deps(startup))
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
		var lastPortJobs jobRange
		prevBarrier := startup
		for pi, e := range ins {
			work := 0.0
			if e.Port < len(n.WorkByPort) {
				work = n.WorkByPort[e.Port].Seconds(lang)
			}
			decode := m.SerdeSeconds(e.Bytes)
			b := int(e.Batches)
			upstream := emitJobsOf[at[e.From]]
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
					addJob(pool, perJob, latency, jobMeta{Node: nid, Port: int32(e.Port), Seq: int32(j)}, deps(prevBarrier, up))
				}
				port.n = b
			} else if upstream.n > 0 {
				// Empty stream: a zero-cost job keeps the dependency on
				// the upstream end-of-stream.
				last := jobRange{upstream.first + sim.JobID(upstream.n-1), 1}
				addJob(pool, 0, 0, jobMeta{Node: nid, Port: int32(e.Port), Kind: jobEOS}, deps(prevBarrier, last))
				port.n = 1
			}
			portJobs = append(portJobs, port)
			lastPortJobs = port
			// Barrier: later ports wait for this whole port (workers
			// drain ports in order).
			if pi < len(ins)-1 {
				prevBarrier = addJob(pool, 0, 0, jobMeta{Node: nid, Port: int32(e.Port), Kind: jobPortEnd}, deps(prevBarrier, port))
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
					addJob(pool, perJob, 0, jobMeta{Node: nid, Port: -1, Seq: int32(j)}, deps(startup))
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
		endID := addJob(pool, endCost, 0, jobMeta{Node: nid, Kind: jobClose}, deps(startup, portJobs...))

		if n.FullyBlocking || lastPortJobs.n == 0 {
			emitJobsOf[k] = jobRange{endID, 1}
		} else {
			emitJobsOf[k] = lastPortJobs
		}
	}

	return jobs, pools, meta, nil
}

// topoNodeOrder sorts the positions of tr's nodes topologically (Kahn's
// algorithm, seeded and fanned out in trace order); at maps node IDs to
// positions.
func topoNodeOrder(tr *Trace, at []int32) ([]int32, error) {
	indeg := make([]int, len(tr.Nodes))
	adj := make([][]int32, len(tr.Nodes))
	for _, e := range tr.Edges {
		from, to := at[e.From], at[e.To]
		indeg[to]++
		adj[from] = append(adj[from], to)
	}
	order := make([]int32, 0, len(tr.Nodes))
	for k := range tr.Nodes {
		if indeg[k] == 0 {
			order = append(order, int32(k))
		}
	}
	// order doubles as the queue: everything past next is still to
	// visit.
	for next := 0; next < len(order); next++ {
		for _, to := range adj[order[next]] {
			indeg[to]--
			if indeg[to] == 0 {
				order = append(order, to)
			}
		}
	}
	if len(order) != len(tr.Nodes) {
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
