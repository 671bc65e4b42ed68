package dataflow

import (
	"fmt"

	"repro/internal/shard"
)

// The sharded tier prices multi-node execution onto the trace after the
// data plane has run, and before lowering: each edge's partitioning
// becomes an exchange operator whose cross-node bytes ride the NIC, and
// each blocking operator's per-worker state is run through the grace
// spill planner against the topology's memory budget. Like faults, the
// tier acts only on the schedule/cost plane — sink tables are
// bit-identical to the single-cluster run, which the golden topology
// tests pin.

// spillSkewFraction is the modeled share of a blocking operator's state
// landing in its hottest grace partition. Real key distributions are
// mildly skewed; twice the uniform share is the conventional planning
// assumption, and it is what triggers recursive repartitioning once the
// hot partition alone outgrows the worker budget.
const spillSkewFraction = 2.0 / shard.SpillFanout

// exchangeOf maps an edge partitioning to its cross-node exchange kind.
// Round-robin (and 1→1) edges stay node-local: datum sharding co-
// locates map-like consumers with their producers' shards, so only
// key-based repartitioning and broadcasts cross the NIC.
func exchangeOf(k partKind) shard.Exchange {
	switch k {
	case partHash:
		return shard.ExHash
	case partBroadcast:
		return shard.ExBroadcast
	default:
		return shard.ExLocal
	}
}

// annotateShard fills the trace's ShuffleBytes and Spill fields for a
// sharded topology. Called between buildTrace and lowering; a no-op on
// the legacy tier.
func (ex *Execution) annotateShard(tr *Trace) error {
	topo := ex.cfg.Shard
	if !topo.Sharded() {
		return nil
	}
	nodes := topo.NumNodes()

	// Exchange pricing: each trace edge inherits its workflow edge's
	// partitioning. Key: (from, to, port) — unique because a consumer
	// port has one producer.
	type edgeKey struct {
		from, to NodeID
		port     int
	}
	kinds := make(map[edgeKey]partKind)
	for _, n := range ex.wf.nodes {
		for _, e := range n.outEdges {
			kinds[edgeKey{e.from.id, e.to.id, e.port}] = e.part.kind
		}
	}
	for i := range tr.Edges {
		e := &tr.Edges[i]
		k, ok := kinds[edgeKey{e.From, e.To, e.Port}]
		if !ok {
			return fmt.Errorf("dataflow: trace edge %d->%d:p%d has no workflow edge", e.From, e.To, e.Port)
		}
		e.ShuffleBytes = exchangeOf(k).CrossBytes(e.Bytes, nodes)
	}

	// Spill planning: a blocking operator's state (join build side,
	// group-by table) is hash-partitioned across its workers; when one
	// worker's share outgrows the topology's budget it takes the grace
	// partition-wise build/probe path. Workers spill concurrently, so
	// the node pays one worker's plan in time and all workers' files in
	// bytes.
	budget := topo.WorkerMem()
	if budget <= 0 {
		return nil
	}
	inBytes := make(map[NodeID][]int64) // per consumer, indexed by port
	for i := range tr.Edges {
		e := &tr.Edges[i]
		ports := inBytes[e.To]
		for len(ports) <= e.Port {
			ports = append(ports, 0)
		}
		ports[e.Port] += e.Bytes
		inBytes[e.To] = ports
	}
	for i := range tr.Nodes {
		n := &tr.Nodes[i]
		if n.Kind != "operator" {
			continue
		}
		var state int64
		for port, bytes := range inBytes[n.ID] {
			blocking := port < len(n.BlockingPorts) && n.BlockingPorts[port]
			if n.FullyBlocking || blocking {
				state += bytes
			}
		}
		if state == 0 {
			continue
		}
		par := n.Parallelism
		if par < 1 {
			par = 1
		}
		plan, err := shard.PlanSpill(ex.model, state/int64(par), budget, spillSkewFraction)
		if err != nil {
			return err
		}
		if !plan.Spilled() {
			continue
		}
		n.SpillBytes = plan.SpilledBytes * int64(par)
		n.SpillSeconds = plan.Seconds
	}
	return nil
}
