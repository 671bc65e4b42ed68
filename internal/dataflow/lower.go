package dataflow

import (
	"fmt"
	"strconv"

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
//
// Lower returns lower's groups expanded job by job (sim.Graph.Expand),
// each job with its own Deps slice. The engine itself schedules the
// groups and never expands them.
func Lower(tr *Trace, m *cost.Model) ([]sim.Job, []sim.Pool, error) {
	lw, err := lower(tr, m)
	if err != nil {
		return nil, nil, err
	}
	return lw.graph().Expand(), lw.pools, nil
}

// lowering is a trace lowered to job groups (sim.Group): a port's batch
// jobs are one group, a source's batches another, and every
// submission, startup, init, end-of-stream, barrier and close job a
// group of one. Job IDs run group by group in lowering order, as they
// did when every job was stored.
type lowering struct {
	groups []sim.Group
	pools  []sim.Pool
	// meta[k] says what group k's jobs stand for. The recovery layer
	// needs it: checkpoint write taxes apply to data batch jobs, and a
	// killed batch job pays a checkpoint restore for its node. So does
	// the recorder, which names a job only when it records its span (a
	// run lowers thousands and, with no recorder attached, nobody reads
	// a name): a batch job from its port and its sequence number, which
	// is its place in its group (telemetry.BatchName), any other job by
	// name.
	meta []groupMeta
}

// groupMeta tags one group of lowered jobs with its provenance.
type groupMeta struct {
	// Node is the ID of the trace node the group belongs to, or -1 for
	// controller-level jobs (workflow submission).
	Node int32
	// Port is the input port of a batch, end-of-stream or port-end
	// group (-1 for a source's generated batches).
	Port int32
	Kind jobKind
}

func (lw *lowering) graph() sim.Graph { return sim.OfGroups(lw.groups) }

// job returns what job id stands for: its group's metadata and, for a
// batch job, its sequence number on its port.
func (lw *lowering) job(id sim.JobID) (groupMeta, int) {
	k := lw.graph().GroupOf(id)
	return lw.meta[k], int(id - lw.groups[k].First)
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
func (mt groupMeta) name(node string) string {
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

// poolName names a node's worker pool, "n<ID>:<name>", in one
// allocation (every lowering names every pool).
func poolName(id NodeID, name string) string { return "n" + strconv.Itoa(int(id)) + ":" + name }

// controllerPool is pool 0 of every lowering; the node at position k of
// the trace has pool k+1.
const controllerPool = "controller"

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

// lower converts an execution trace into job groups and pools (see
// Lower for the mapping).
func lower(tr *Trace, m *cost.Model) (*lowering, error) {
	if tr == nil {
		return nil, fmt.Errorf("dataflow: nil trace")
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}

	// Everything per node below is indexed by the node's position.
	at, err := nodePositions(tr)
	if err != nil {
		return nil, err
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
			return nil, fmt.Errorf("dataflow: edge from unknown node %d", e.From)
		}
		if to < 0 {
			return nil, fmt.Errorf("dataflow: edge to unknown node %d", e.To)
		}
		inEdges[to] = append(inEdges[to], e)
		// The engine serializes a node's output once per out edge (each
		// consumer link carries its own copy).
		outBytes[from] += e.Bytes
	}

	// Group and wait counts are sums over the trace, so the slices
	// below are allocated once: per node a startup, an init and a close
	// group plus per port a batch (or end-of-stream) group and a
	// barrier, each barrier waiting on two groups and the close group
	// on every port.
	pools := make([]sim.Pool, 1, 1+len(tr.Nodes))
	pools[0] = sim.Pool{Name: controllerPool, Slots: 1}
	nGroups, nAfter := 1, 0
	for k := range tr.Nodes {
		n := &tr.Nodes[k]
		pools = append(pools, sim.Pool{Name: poolName(n.ID, n.Name), Slots: max(n.Parallelism, 1)})
		ports := max(len(inEdges[k]), 1) // a source's batches are its one port
		nGroups += 3 + 2*ports
		nAfter += 3 + 4*ports
	}
	lw := &lowering{
		groups: make([]sim.Group, 0, nGroups),
		pools:  pools,
		meta:   make([]groupMeta, 0, nGroups),
	}
	arena := make([]int32, 0, nAfter)
	next := sim.JobID(0)
	// add appends a group of n jobs that wait whole on group wait and
	// the groups more (those of them that are not -1), and (up >= 0) on
	// group up's jobs min(j, n-1), or its last with upLast; it returns
	// the group's position.
	add := func(pool int32, n int, costSec, latency float64, mt groupMeta, up int32, upLast bool, wait int32, more ...int32) int32 {
		start := len(arena)
		if wait >= 0 {
			arena = append(arena, wait)
		}
		for _, a := range more {
			if a >= 0 {
				arena = append(arena, a)
			}
		}
		var waits []int32
		if len(arena) > start {
			waits = arena[start:len(arena):len(arena)]
		}
		k := int32(len(lw.groups))
		lw.groups = append(lw.groups, sim.Group{
			First: next, Count: int32(n), Pool: pool, Up: up, UpLast: upLast,
			Cost: costSec, Latency: latency, After: waits,
		})
		lw.meta = append(lw.meta, mt)
		next += sim.JobID(n)
		return k
	}

	// Workflow submission.
	root := add(0, 1, m.ControlOverhead, 0, groupMeta{Node: -1, Kind: jobSubmit}, -1, false, -1)

	// Process nodes in topological order so upstream emit groups exist
	// when consumers are lowered. Node IDs are assigned in creation
	// order which is not necessarily topological, so sort by
	// dependencies.
	order, err := topoNodeOrder(tr, at)
	if err != nil {
		return nil, err
	}

	emitOf := make([]int32, len(tr.Nodes)) // the group that emits a node's output
	for i := range emitOf {
		emitOf[i] = -1
	}
	var ports []int32 // the current node's port groups, port by port
	for _, k := range order {
		n := &tr.Nodes[k]
		pool := k + 1
		lang := n.Language
		nid := int32(n.ID)

		startup := add(pool, 1, m.OperatorStartup, 0, groupMeta{Node: nid, Kind: jobStartup}, -1, false, root)
		// Per-worker initialization (NewInstance): workers initialize in
		// parallel, so the gate costs OpenWork divided by parallelism.
		if open := n.OpenWork.Seconds(lang); open > 0 {
			startup = add(pool, 1, open/float64(max(n.Parallelism, 1)), 0, groupMeta{Node: nid, Kind: jobInit}, -1, false, startup)
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

		ports = ports[:0]
		last := int32(-1) // the last port's group, if it has one
		prevBarrier := startup
		for pi, e := range ins {
			work := 0.0
			if e.Port < len(n.WorkByPort) {
				work = n.WorkByPort[e.Port].Seconds(lang)
			}
			decode := m.SerdeSeconds(e.Bytes)
			b := int(e.Batches)
			// Batch j waits on the upstream job that emitted it, if any:
			// the emitting group's job min(j, n-1).
			upstream := emitOf[at[e.From]]
			port := int32(-1)
			if b > 0 {
				perJob := (work + decode) / float64(b)
				// Batch latency: the node-local transfer plus, on the
				// sharded tier, the exchange's cross-node scatter at the
				// same NIC rate. ShuffleBytes is zero on the legacy tier,
				// so this lowers bit-identically to the single-cluster
				// path there.
				latency := m.TransferSeconds(e.Bytes/int64(b)) + m.ShuffleSeconds(e.ShuffleBytes/int64(b))
				port = add(pool, b, perJob, latency, groupMeta{Node: nid, Port: int32(e.Port), Kind: jobBatch}, upstream, false, prevBarrier)
			} else if upstream >= 0 {
				// Empty stream: a zero-cost job keeps the dependency on
				// the upstream end-of-stream.
				port = add(pool, 1, 0, 0, groupMeta{Node: nid, Port: int32(e.Port), Kind: jobEOS}, upstream, true, prevBarrier)
			}
			if port >= 0 {
				ports = append(ports, port)
			}
			last = port
			// Barrier: later ports wait for this whole port (workers
			// drain ports in order).
			if pi < len(ins)-1 {
				prevBarrier = add(pool, 1, 0, 0, groupMeta{Node: nid, Port: int32(e.Port), Kind: jobPortEnd}, -1, false, prevBarrier, port)
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
				last = add(pool, b, perJob, 0, groupMeta{Node: nid, Port: -1, Kind: jobBatch}, -1, false, startup)
				ports = append(ports, last)
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
		} else if last >= 0 && encodeTotal > 0 {
			// Streaming operators serialize as they emit: spread the
			// encode cost over the emitting jobs by adding a share to
			// their cost.
			gr := &lw.groups[last]
			gr.Cost += encodeTotal / float64(gr.Count)
		}
		end := add(pool, 1, endCost, 0, groupMeta{Node: nid, Kind: jobClose}, -1, false, startup, ports...)

		if n.FullyBlocking || last < 0 {
			emitOf[k] = end
		} else {
			emitOf[k] = last
		}
	}

	return lw, nil
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
	lw, err := lower(tr, m)
	if err != nil {
		return 0, err
	}
	res, err := lw.graph().Schedule(lw.pools, nil, sim.RetryPolicy{}, false)
	if err != nil {
		return 0, err
	}
	return res.Makespan, nil
}
