package dataflow

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/cost"
	"repro/internal/relation"
)

// NodeID identifies a node within one workflow.
type NodeID int

type nodeKind int

const (
	kindSource nodeKind = iota
	kindOperator
	kindSink
)

func (k nodeKind) String() string {
	switch k {
	case kindSource:
		return "source"
	case kindOperator:
		return "operator"
	default:
		return "sink"
	}
}

type edge struct {
	from, to *node
	port     int // input port index at the consumer
	part     Partitioning
	keyPos   int // resolved hash key position in producer schema
}

type node struct {
	id          NodeID
	kind        nodeKind
	name        string
	op          Operator         // kindOperator only
	table       *relation.Table  // kindSource only
	scanWork    cost.Work        // kindSource only, per tuple
	srcSchema   *relation.Schema // kindSource only
	parallelism int
	batchSize   int    // source batch size; 0 = workflow default / auto
	signature   string // user-visible parameters, folded into lineage fingerprints
	inEdges     []*edge
	outEdges    []*edge
	schema      *relation.Schema // output schema, set by Validate
}

// Workflow is a DAG of sources, operators and sinks under
// construction. Builder methods record the first error and make
// Validate report it, so call sites can chain without checking each
// step.
type Workflow struct {
	name      string
	nodes     []*node
	err       error
	validated bool
}

// New returns an empty workflow with the given name.
func New(name string) *Workflow {
	return &Workflow{name: name}
}

// Name returns the workflow name.
func (w *Workflow) Name() string { return w.name }

func (w *Workflow) fail(err error) NodeID {
	if w.err == nil {
		w.err = err
	}
	return NodeID(-1)
}

func (w *Workflow) addNode(n *node) NodeID {
	n.id = NodeID(len(w.nodes))
	w.nodes = append(w.nodes, n)
	w.validated = false
	return n.id
}

// NodeOpt configures a node at creation.
type NodeOpt func(*node)

// WithParallelism sets the number of workers executing an operator.
func WithParallelism(n int) NodeOpt {
	return func(nd *node) { nd.parallelism = n }
}

// WithSignature attaches a parameter signature to a node. The lineage
// layer folds it into the node's fingerprint, so editing an operator's
// configuration (a new signature) invalidates its cached artifact and
// the dirty suffix below it.
func WithSignature(sig string) NodeOpt {
	return func(nd *node) { nd.signature = sig }
}

// WithScanWork overrides the per-tuple cost a source charges.
func WithScanWork(w cost.Work) NodeOpt {
	return func(nd *node) { nd.scanWork = w }
}

// Source adds a table-scan source node and returns its ID. The table
// stays the caller's: the workflow only reads it (the scan slices its
// rows into batches; the lineage planner digests it on every run).
func (w *Workflow) Source(name string, t *relation.Table, opts ...NodeOpt) NodeID {
	if t == nil {
		return w.fail(fmt.Errorf("dataflow: source %q has nil table", name))
	}
	n := &node{
		kind:        kindSource,
		name:        name,
		table:       t,
		srcSchema:   t.Schema(),
		scanWork:    DefaultScanWork,
		parallelism: 1,
	}
	for _, o := range opts {
		o(n)
	}
	if n.parallelism != 1 {
		return w.fail(fmt.Errorf("dataflow: source %q: sources run with parallelism 1", name))
	}
	return w.addNode(n)
}

// Op adds an operator node and returns its ID.
func (w *Workflow) Op(op Operator, opts ...NodeOpt) NodeID {
	if op == nil {
		return w.fail(fmt.Errorf("dataflow: nil operator"))
	}
	d := op.Desc()
	if err := d.Validate(); err != nil {
		return w.fail(err)
	}
	n := &node{kind: kindOperator, name: d.Name, op: op, parallelism: 1}
	for _, o := range opts {
		o(n)
	}
	if n.parallelism < 1 {
		return w.fail(fmt.Errorf("dataflow: operator %q: parallelism %d", d.Name, n.parallelism))
	}
	return w.addNode(n)
}

// Sink adds a result-collecting sink node and returns its ID.
func (w *Workflow) Sink(name string) NodeID {
	n := &node{kind: kindSink, name: name, parallelism: 1}
	return w.addNode(n)
}

// Connect wires from's output into to's input port with the given
// partitioning.
func (w *Workflow) Connect(from, to NodeID, port int, part Partitioning) {
	if w.err != nil {
		return
	}
	if int(from) < 0 || int(from) >= len(w.nodes) || int(to) < 0 || int(to) >= len(w.nodes) {
		w.fail(fmt.Errorf("dataflow: connect: node id out of range (%d -> %d)", from, to))
		return
	}
	f, t := w.nodes[from], w.nodes[to]
	if f.kind == kindSink {
		w.fail(fmt.Errorf("dataflow: connect: sink %q cannot produce output", f.name))
		return
	}
	if t.kind == kindSource {
		w.fail(fmt.Errorf("dataflow: connect: source %q cannot consume input", t.name))
		return
	}
	maxPort := 0
	if t.kind == kindOperator {
		maxPort = t.op.Desc().Ports - 1
	}
	if port < 0 || port > maxPort {
		w.fail(fmt.Errorf("dataflow: connect: %q has no input port %d", t.name, port))
		return
	}
	for _, e := range t.inEdges {
		if e.port == port {
			w.fail(fmt.Errorf("dataflow: connect: input port %d of %q already connected", port, t.name))
			return
		}
	}
	e := &edge{from: f, to: t, port: port, part: part, keyPos: -1}
	f.outEdges = append(f.outEdges, e)
	t.inEdges = append(t.inEdges, e)
	w.validated = false
}

// Validate runs the plan checker and refuses the plan on its first
// WF001–WF006 diagnostic; WF007 and WF008 are advisory and do not stop
// a run. On success it installs each node's output schema and each
// hash edge's key position for execution, and remembers the verdict
// until the plan next changes. It is called automatically by Start.
func (w *Workflow) Validate() error {
	if w.err != nil {
		return w.err
	}
	if w.validated {
		return nil
	}
	diags, schemas := check(w)
	for _, d := range diags {
		if d.Rule != RuleSignature && d.Rule != RuleCheckpoint {
			return fmt.Errorf("dataflow: %s", d)
		}
	}
	for _, n := range w.nodes {
		n.schema = schemas[n.id]
		for _, e := range n.inEdges {
			if e.part.kind == partHash {
				e.keyPos = schemas[e.from.id].IndexOf(e.part.key)
			}
		}
	}
	w.validated = true
	return nil
}

// topoOrder returns the nodes topologically sorted or a cycle error.
func (w *Workflow) topoOrder() ([]*node, error) {
	indeg := make([]int, len(w.nodes))
	for _, n := range w.nodes {
		indeg[n.id] = len(n.inEdges)
	}
	var queue []*node
	for _, n := range w.nodes {
		if indeg[n.id] == 0 {
			queue = append(queue, n)
		}
	}
	var order []*node
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		order = append(order, n)
		for _, e := range n.outEdges {
			indeg[e.to.id]--
			if indeg[e.to.id] == 0 {
				queue = append(queue, e.to)
			}
		}
	}
	if len(order) != len(w.nodes) {
		return nil, fmt.Errorf("dataflow: workflow %q contains a cycle", w.name)
	}
	return order, nil
}

// NumOperators returns the number of operator nodes (the paper's
// operator-count metric excludes sources and sinks' view operators are
// counted as operators by Texera, so sinks are included).
func (w *Workflow) NumOperators() int {
	n := 0
	for _, nd := range w.nodes {
		if nd.kind != kindSource {
			n++
		}
	}
	return n
}

// PlanNode is the exported, read-only view of one node of a workflow
// plan — the topology the static validator checks and the EXPLAIN
// profile hangs its measurements on.
type PlanNode struct {
	ID          NodeID      `json:"id"`
	Name        string      `json:"name"`
	Kind        string      `json:"kind"` // "source", "operator", "sink"
	Parallelism int         `json:"parallelism"`
	Signature   string      `json:"signature,omitempty"`
	Inputs      []PlanInput `json:"inputs,omitempty"`
}

// PlanInput is one input edge of a plan node.
type PlanInput struct {
	From         string `json:"from"`
	FromID       NodeID `json:"from_id"`
	Port         int    `json:"port"`
	Partitioning string `json:"partitioning"`
}

// PlanNodes returns the workflow's node list in ID order, with input
// edges ordered by port then producer ID — a deterministic snapshot of
// the DAG, independent of execution.
func (w *Workflow) PlanNodes() []PlanNode {
	out := make([]PlanNode, 0, len(w.nodes))
	for _, nd := range w.nodes {
		p := nd.parallelism
		if p < 1 {
			p = 1
		}
		pn := PlanNode{
			ID:          nd.id,
			Name:        nd.name,
			Kind:        nd.kind.String(),
			Parallelism: p,
			Signature:   nd.signature,
		}
		for _, e := range nd.inEdges {
			pn.Inputs = append(pn.Inputs, PlanInput{
				From:         e.from.name,
				FromID:       e.from.id,
				Port:         e.port,
				Partitioning: e.part.String(),
			})
		}
		slices.SortFunc(pn.Inputs, func(a, b PlanInput) int {
			return cmp.Or(cmp.Compare(a.Port, b.Port), cmp.Compare(a.FromID, b.FromID))
		})
		out = append(out, pn)
	}
	return out
}
