package dataflow

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/relation"
)

// This file is the rewrite surface the plan optimizer (internal/planopt)
// works through: read-only views of the IR plus a small set of
// structural mutations, each of which re-arms validation so an invalid
// rewrite is caught before execution. The optimizer never touches nodes
// or edges directly — every mutation funnels through a method here that
// enforces the structural preconditions.

// IsHash reports whether the partitioning is hash-by-key.
func (p Partitioning) IsHash() bool { return p.kind == partHash }

// IsRoundRobin reports whether the partitioning deals batches to
// workers in turn.
func (p Partitioning) IsRoundRobin() bool { return p.kind == partRoundRobin }

// Key returns the hash key field ("" unless hash-partitioned).
func (p Partitioning) Key() string { return p.key }

// EdgeInfo is the exported, read-only view of one edge.
type EdgeInfo struct {
	From NodeID
	To   NodeID
	Port int
	Part Partitioning
}

// InEdgesOf returns the input edges of one node, ordered by port.
func (w *Workflow) InEdgesOf(id NodeID) []EdgeInfo {
	n := w.nodeAt(id)
	if n == nil {
		return nil
	}
	var out []EdgeInfo
	for _, e := range sortedInEdges(n) {
		out = append(out, EdgeInfo{From: e.from.id, To: n.id, Port: e.port, Part: e.part})
	}
	return out
}

// OutEdgesOf returns the output edges of one node, in the order they
// were connected.
func (w *Workflow) OutEdgesOf(id NodeID) []EdgeInfo {
	n := w.nodeAt(id)
	if n == nil {
		return nil
	}
	out := make([]EdgeInfo, len(n.outEdges))
	for i, e := range n.outEdges {
		out[i] = EdgeInfo{From: n.id, To: e.to.id, Port: e.port, Part: e.part}
	}
	return out
}

func sortedInEdges(n *node) []*edge {
	es := append([]*edge(nil), n.inEdges...)
	for i := 1; i < len(es); i++ {
		for j := i; j > 0 && es[j].port < es[j-1].port; j-- {
			es[j], es[j-1] = es[j-1], es[j]
		}
	}
	return es
}

func (w *Workflow) nodeAt(id NodeID) *node {
	if int(id) < 0 || int(id) >= len(w.nodes) {
		return nil
	}
	return w.nodes[id]
}

// TopoIDs returns the node IDs in topological order.
func (w *Workflow) TopoIDs() ([]NodeID, error) {
	order, err := w.topoOrder()
	if err != nil {
		return nil, err
	}
	ids := make([]NodeID, len(order))
	for i, n := range order {
		ids[i] = n.id
	}
	return ids, nil
}

// NumNodes returns the total node count (sources, operators, sinks).
func (w *Workflow) NumNodes() int { return len(w.nodes) }

// NameOf returns a node's display name ("" for an unknown ID).
func (w *Workflow) NameOf(id NodeID) string {
	n := w.nodeAt(id)
	if n == nil {
		return ""
	}
	return n.name
}

// IsSource reports whether the node is a table-scan source.
func (w *Workflow) IsSource(id NodeID) bool {
	n := w.nodeAt(id)
	return n != nil && n.kind == kindSource
}

// IsSink reports whether the node is a result sink.
func (w *Workflow) IsSink(id NodeID) bool {
	n := w.nodeAt(id)
	return n != nil && n.kind == kindSink
}

// OperatorAt returns the node's operator (nil for sources, sinks and
// unknown IDs).
func (w *Workflow) OperatorAt(id NodeID) Operator {
	n := w.nodeAt(id)
	if n == nil || n.kind != kindOperator {
		return nil
	}
	return n.op
}

// SourceTableAt returns a source node's backing table (nil otherwise).
func (w *Workflow) SourceTableAt(id NodeID) *relation.Table {
	n := w.nodeAt(id)
	if n == nil || n.kind != kindSource {
		return nil
	}
	return n.table
}

// ParallelismOf returns a node's worker count (0 for unknown IDs).
func (w *Workflow) ParallelismOf(id NodeID) int {
	n := w.nodeAt(id)
	if n == nil {
		return 0
	}
	return n.parallelism
}

// BatchSizeOf returns a source's configured batch size (0 = default).
func (w *Workflow) BatchSizeOf(id NodeID) int {
	n := w.nodeAt(id)
	if n == nil {
		return 0
	}
	return n.batchSize
}

// SetParallelism changes an operator's worker count. The workflow must
// be re-validated afterwards; stateful-operator partitioning rules are
// re-checked then.
func (w *Workflow) SetParallelism(id NodeID, workers int) error {
	n := w.nodeAt(id)
	if n == nil || n.kind != kindOperator {
		return fmt.Errorf("dataflow: set parallelism: node #%d is not an operator", id)
	}
	if workers < 1 {
		return fmt.Errorf("dataflow: set parallelism: operator %q: %d workers", n.name, workers)
	}
	n.parallelism = workers
	w.validated = false
	return nil
}

// SetSourceBatch changes a source's emitted batch size (0 restores the
// workflow default / auto selection).
func (w *Workflow) SetSourceBatch(id NodeID, batch int) error {
	n := w.nodeAt(id)
	if n == nil || n.kind != kindSource {
		return fmt.Errorf("dataflow: set batch: node #%d is not a source", id)
	}
	if batch < 0 {
		return fmt.Errorf("dataflow: set batch: source %q: batch %d", n.name, batch)
	}
	n.batchSize = batch
	w.validated = false
	return nil
}

// SetEdgePartitioning replaces the partitioning of the edge into the
// given consumer port.
func (w *Workflow) SetEdgePartitioning(to NodeID, port int, part Partitioning) error {
	n := w.nodeAt(to)
	if n == nil {
		return fmt.Errorf("dataflow: set partitioning: unknown node #%d", to)
	}
	for _, e := range n.inEdges {
		if e.port == port {
			e.part = part
			e.keyPos = -1
			w.validated = false
			return nil
		}
	}
	return fmt.Errorf("dataflow: set partitioning: %q has no input edge on port %d", n.name, port)
}

// SwapJoinInputs exchanges a hash join's build and probe sides: the
// port-0 and port-1 edges trade ports and the operator's keys swap. A
// column permutation is installed on the operator so its output keeps
// the pre-swap schema and column order — downstream operators are
// unaffected. Output row order follows the new probe side (the old
// build input), so the rewrite preserves the output as a multiset, not
// as a sequence. Inner joins only: a left-outer join's unmatched-row
// semantics are not symmetric.
func (w *Workflow) SwapJoinInputs(id NodeID) error {
	n := w.nodeAt(id)
	if n == nil || n.kind != kindOperator {
		return fmt.Errorf("dataflow: swap join: node #%d is not an operator", id)
	}
	op, ok := n.op.(*HashJoinOp)
	if !ok {
		return fmt.Errorf("dataflow: swap join: %q is not a hash join", n.name)
	}
	if op.Kind != relation.Inner {
		return fmt.Errorf("dataflow: swap join: %q is not an inner join", n.name)
	}
	if op.outPerm != nil {
		return fmt.Errorf("dataflow: swap join: %q already swapped", n.name)
	}
	if len(n.inEdges) != 2 {
		return fmt.Errorf("dataflow: swap join: %q has %d input edges", n.name, len(n.inEdges))
	}
	if err := w.Validate(); err != nil {
		return err
	}
	var buildEdge, probeEdge *edge
	for _, e := range n.inEdges {
		if e.port == 0 {
			buildEdge = e
		} else {
			probeEdge = e
		}
	}
	build, probe := buildEdge.from.schema, probeEdge.from.schema
	orig, err := op.OutputSchema([]*relation.Schema{build, probe})
	if err != nil {
		return fmt.Errorf("dataflow: swap join: %w", err)
	}
	bk := build.IndexOf(op.BuildKey)
	pk := probe.IndexOf(op.ProbeKey)
	if bk < 0 || pk < 0 {
		return fmt.Errorf("dataflow: swap join: %q: key not in input schema", n.name)
	}
	// Pre-swap physical layout: probe columns, then build columns minus
	// the build key. Post-swap: build columns, then probe columns minus
	// the probe key. perm[k] is the post-swap position of the pre-swap
	// column k; the probe-key column is read from the (equal-valued)
	// build-key column, which is what makes inner equi-joins the only
	// eligible kind.
	np, nb := probe.Len(), build.Len()
	perm := make([]int, orig.Len())
	for k := range perm {
		if k < np {
			switch {
			case k == pk:
				perm[k] = bk
			case k < pk:
				perm[k] = nb + k
			default:
				perm[k] = nb + k - 1
			}
			continue
		}
		j := k - np
		if j >= bk {
			j++
		}
		perm[k] = j
	}
	op.outSchema = orig
	op.outPerm = perm
	op.BuildKey, op.ProbeKey = op.ProbeKey, op.BuildKey
	buildEdge.port, probeEdge.port = 1, 0
	w.validated = false
	return nil
}

// SwapAdjacentUnary reorders two adjacent unary operators a -> b into
// b -> a, re-wiring prev -> b -> a -> next. All three edges must be
// round-robin (hash keys could dangle against the re-ordered schemas)
// and both operators unary with a single consumer. The caller is
// responsible for semantic safety — this method only checks structure.
func (w *Workflow) SwapAdjacentUnary(a, b NodeID) error {
	na, nb := w.nodeAt(a), w.nodeAt(b)
	if na == nil || nb == nil || na.kind != kindOperator || nb.kind != kindOperator {
		return fmt.Errorf("dataflow: swap unary: #%d and #%d must both be operators", a, b)
	}
	if na.op.Desc().Ports != 1 || nb.op.Desc().Ports != 1 {
		return fmt.Errorf("dataflow: swap unary: %q and %q must both be unary", na.name, nb.name)
	}
	if len(na.outEdges) != 1 || na.outEdges[0].to != nb {
		return fmt.Errorf("dataflow: swap unary: %q does not feed %q alone", na.name, nb.name)
	}
	if len(nb.outEdges) != 1 || len(na.inEdges) != 1 || len(nb.inEdges) != 1 {
		return fmt.Errorf("dataflow: swap unary: %q -> %q is not a simple chain", na.name, nb.name)
	}
	prev, mid, next := na.inEdges[0], na.outEdges[0], nb.outEdges[0]
	for _, e := range []*edge{prev, mid, next} {
		if e.part.kind != partRoundRobin {
			return fmt.Errorf("dataflow: swap unary: edge %q->%q is %s, not round-robin", e.from.name, e.to.name, e.part)
		}
	}
	prev.to = nb
	mid.from, mid.to = nb, na
	next.from = na
	na.inEdges[0], na.outEdges[0] = mid, next
	nb.inEdges[0], nb.outEdges[0] = prev, mid
	for _, e := range []*edge{prev, mid, next} {
		e.keyPos = -1
	}
	w.validated = false
	return nil
}

// mergeSignatures folds two rev=<int> signatures into one so the fused
// node's lineage fingerprint still moves when either half is revised.
func mergeSignatures(a, b string) string {
	ra, oka := strings.CutPrefix(a, "rev=")
	rb, okb := strings.CutPrefix(b, "rev=")
	switch {
	case a == "":
		return b
	case b == "":
		return a
	case oka && okb:
		na, erra := strconv.Atoi(ra)
		nb, errb := strconv.Atoi(rb)
		if erra == nil && errb == nil {
			return fmt.Sprintf("rev=%d", na+nb)
		}
	}
	return a
}
