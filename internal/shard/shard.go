// Package shard models datum-sharded multi-node execution: the tier
// that breaks the paper cluster's 32-vCPU ceiling. A Topology describes
// N paper-shaped nodes; inputs are datum-sharded across them at plan
// time; repartitioning operators (hash/range/broadcast exchanges) are
// priced at the NIC rate through internal/cost; and larger-than-memory
// hash joins and group-bys take a grace-style partition-wise spill path
// through internal/objstore.
//
// Everything in this package acts on the schedule/cost plane only — the
// data plane still computes exact results in-process, so outputs are
// bit-identical across topologies (nodes=1, nodes=N, nodes=N with a
// node loss). That invariant is what the golden determinism tests pin.
package shard

// Node shape shared by every simulated cluster: the paper's worker VMs
// (n2-standard-8 class) and the sharded tier's nodes are the same
// machine, so scaling out means more nodes, never bigger ones.
const (
	// NodeVCPUs is the vCPU count of one worker node.
	NodeVCPUs = 8
	// NodeRAM is the RAM of one worker node: 64 GB.
	NodeRAM = int64(64) << 30
	// PaperWorkerNodes is the paper cluster's worker-node count.
	PaperWorkerNodes = 4
	// PaperWorkerVCPUs is the paper cluster's total worker vCPUs, the
	// legacy tier's parallelism ceiling.
	PaperWorkerVCPUs = PaperWorkerNodes * NodeVCPUs
)

// Topology describes the simulated cluster a run schedules onto, and is
// the only description of it: every worker ceiling is TotalVCPUs.
// The zero value (or Nodes <= 1) is the legacy single-cluster tier:
// the paper's flat 4×8-vCPU pool with no exchange pricing and no
// spill modeling.
type Topology struct {
	// Nodes is the worker-node count; <= 1 means the legacy paper tier.
	Nodes int
	// WorkerMemBytes is the per-worker operator-state budget before a
	// blocking operator (hash join build, group-by table) spills to
	// disk. Zero (or less) derives a default from the node shape:
	// workers share roughly 60% of node RAM, the rest belongs to the
	// engine, OS page cache and shuffle buffers.
	WorkerMemBytes int64
}

// Of returns a topology of n paper-shaped nodes.
func Of(n int) Topology { return Topology{Nodes: n} }

// Sharded reports whether the topology is a genuine multi-node tier.
func (t Topology) Sharded() bool { return t.Nodes > 1 }

// NumNodes returns the worker-node count, treating the legacy tier as
// the paper's node count for placement purposes.
func (t Topology) NumNodes() int {
	if t.Nodes <= 0 {
		return 1
	}
	return t.Nodes
}

// TotalVCPUs returns the worker-vCPU ceiling of the topology: the
// paper budget for the legacy tier, nodes × NodeVCPUs beyond it.
func (t Topology) TotalVCPUs() int {
	if !t.Sharded() {
		return PaperWorkerVCPUs
	}
	return t.Nodes * NodeVCPUs
}

// WorkerMem returns the per-worker state budget in bytes before spill,
// deriving the default when unset. The legacy tier never spills
// (returns 0 = unlimited): all state is assumed memory-resident, which
// is the pre-shard behaviour the golden tests pin.
func (t Topology) WorkerMem() int64 {
	if !t.Sharded() {
		return 0
	}
	if t.WorkerMemBytes > 0 {
		return t.WorkerMemBytes
	}
	return NodeRAM * 6 / 10 / NodeVCPUs
}

// Split datum-shards n items across the topology's nodes at plan time:
// contiguous ranges, remainder spread over the first nodes, so shard
// assignment is a pure function of (n, nodes) and every node's count
// differs by at most one. The returned slice has NumNodes entries
// summing to n.
func (t Topology) Split(n int) []int {
	nodes := t.NumNodes()
	out := make([]int, nodes)
	if n <= 0 {
		return out
	}
	base, rem := n/nodes, n%nodes
	for i := range out {
		out[i] = base
		if i < rem {
			out[i]++
		}
	}
	return out
}

// Owner returns the node owning datum i of n under contiguous-range
// sharding — the inverse of Split.
func (t Topology) Owner(i, n int) int {
	nodes := t.NumNodes()
	if n <= 0 || nodes <= 1 {
		return 0
	}
	base, rem := n/nodes, n%nodes
	// First rem nodes own base+1 datums each.
	cut := rem * (base + 1)
	if i < cut {
		return i / (base + 1)
	}
	if base == 0 {
		return nodes - 1
	}
	return rem + (i-cut)/base
}
