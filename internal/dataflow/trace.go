package dataflow

import (
	"repro/internal/core"
	"repro/internal/cost"
)

// Trace is the cost record of one workflow execution: what every node
// really did, in data quantities and charged work. The lowering in
// lower.go converts it into simulator jobs.
type Trace struct {
	Workflow string
	Nodes    []NodeTrace
	Edges    []EdgeTrace
}

// NodeTrace records one node's execution totals.
type NodeTrace struct {
	ID          NodeID
	Name        string
	Kind        string // "source", "operator", "sink"
	Language    cost.Language
	Parallelism int

	// InTuples and OutTuples are the per-operator progress counters the
	// GUI shows (paper Figure 9).
	InTuples  int64
	OutTuples int64

	// EmittedBatches counts the batches this node emitted downstream.
	EmittedBatches int64

	// WorkByPort is the CPU work charged while processing each input
	// port (index 0 for sources' generation work).
	WorkByPort []cost.Work

	// EndWork is the CPU work charged during EndPort — the bulk
	// of a blocking operator's cost (for example sorting).
	EndWork cost.Work

	// OpenWork is the CPU work charged in NewInstance across all workers
	// (for example each worker loading a model or building a lookup
	// table). Workers initialize in parallel, so its wall-clock
	// contribution is OpenWork/Parallelism, gating the operator's
	// first batch.
	OpenWork cost.Work

	// BlockingPorts mirrors the operator descriptor.
	BlockingPorts []bool

	// FullyBlocking marks operators that emit only at the end.
	FullyBlocking bool

	// SpillBytes and SpillSeconds record the sharded tier's
	// larger-than-memory path for this node: bytes its blocking state
	// (join build side, group-by table) wrote to disk partition files,
	// and the extra simulated time the grace build/probe passes cost.
	// Always zero on the legacy single-cluster tier.
	SpillBytes   int64
	SpillSeconds float64

	// Parallelizable marks operators the tuner may scale out: stream
	// operators whose state is either absent or key-partitioned. Sorts,
	// limits and fully blocking operators (which need all input in one
	// place) are excluded.
	Parallelizable bool
}

// TotalWork sums the node's charged work across ports and end phase.
func (n *NodeTrace) TotalWork() cost.Work {
	w := n.EndWork
	for _, p := range n.WorkByPort {
		w = w.Add(p)
	}
	return w
}

// Totals folds the trace into the scalar summary carried on
// core.Result. Nodes and edges are visited in trace order and work in
// port order, so the floating-point sums are deterministic.
func (t *Trace) Totals() core.TraceTotals {
	tt := core.TraceTotals{Nodes: len(t.Nodes), Edges: len(t.Edges)}
	for i := range t.Nodes {
		n := &t.Nodes[i]
		tt.InTuples += n.InTuples
		tt.OutTuples += n.OutTuples
		tt.Batches += n.EmittedBatches
		w := n.TotalWork().Add(n.OpenWork)
		tt.WorkInterp += w.Interp
		tt.WorkMem += w.Mem
		tt.SpillBytes += n.SpillBytes
	}
	for i := range t.Edges {
		e := &t.Edges[i]
		tt.EdgeTuples += e.Tuples
		tt.EdgeBytes += e.Bytes
		tt.ShuffleBytes += e.ShuffleBytes
	}
	return tt
}

// EdgeTrace records the data volume that crossed one edge.
type EdgeTrace struct {
	From, To NodeID
	Port     int
	Batches  int64
	Tuples   int64
	Bytes    int64 // encoded size of all tuples, for serde accounting

	// ShuffleBytes is the cross-node share of Bytes on the sharded
	// tier: what the edge's exchange operator (hash/range scatter,
	// broadcast) pushes over the NIC beyond the node-local transfer.
	// Zero on the legacy tier and for node-local exchanges.
	ShuffleBytes int64
}

// OpProgress is a point-in-time progress snapshot for one node, the
// unit of the engine's progress display.
type OpProgress struct {
	Name      string
	Kind      string
	State     State
	InTuples  int64
	OutTuples int64
	Workers   int
}
