package dataflow

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/relation"
)

// Plan-validation rule IDs. Each diagnostic Validate emits carries one
// of these, so callers (and CI) can assert on specific failures the
// way Texera's composition checker names each editor-side error.
const (
	// RuleBuilder: a builder method recorded an error while the DAG was
	// being constructed (nil operator, duplicate port, out-of-range
	// node id), or the workflow is empty.
	RuleBuilder = "WF001"
	// RuleArity: an operator input port is dangling, a sink has zero or
	// multiple inputs, or a source is unconnected.
	RuleArity = "WF002"
	// RuleCycle: the graph is not a DAG.
	RuleCycle = "WF003"
	// RuleSchema: schema inference through an operator failed (missing
	// column, key type clash across a join, wrong input shape).
	RuleSchema = "WF004"
	// RuleHashKey: a hash-partitioned edge names a key that is not in
	// the producer's output schema.
	RuleHashKey = "WF005"
	// RuleParallel: a stateful operator's parallelism violates its
	// partitioning requirements (parallel sort/limit, a parallel join
	// without hash or broadcast inputs, a parallel group-by without a
	// hash-partitioned input).
	RuleParallel = "WF006"
	// RuleSignature: a node's WithSignature string is not in the
	// "rev=<int>" format the lineage fingerprints expect.
	RuleSignature = "WF007"
	// RuleCheckpoint: a parallel operator has a blocking port fed by a
	// round-robin edge, which epoch-checkpoint recovery cannot replay
	// faithfully (the round-robin cursor is not part of the
	// checkpoint, so a restore re-deals the blocked input differently).
	RuleCheckpoint = "WF008"
)

// Diag is one plan-time diagnostic: a rule ID, the offending node
// (empty for workflow-level problems such as cycles), and a message.
type Diag struct {
	Rule string `json:"rule"`
	Node string `json:"node,omitempty"`
	ID   NodeID `json:"id"`
	Msg  string `json:"msg"`
}

func (d Diag) String() string {
	if d.Node == "" {
		return fmt.Sprintf("%s: %s", d.Rule, d.Msg)
	}
	return fmt.Sprintf("%s: node %q (#%d): %s", d.Rule, d.Node, d.ID, d.Msg)
}

// Validate statically checks a workflow plan and returns every
// diagnostic it can find, without executing anything and without
// mutating the workflow. A nil return means the plan is sound.
// The executor's (*Workflow).Validate runs the same check and refuses
// a plan on its first WF001–WF006 finding.
func Validate(w *Workflow) []Diag {
	if w == nil {
		return []Diag{{Rule: RuleBuilder, ID: -1, Msg: "nil workflow"}}
	}
	diags, _ := check(w)
	return diags
}

// check is the plan checker. It returns every diagnostic the plan
// draws, sorted by SortDiags unless the plan has a cycle, and for a DAG
// the output schema it inferred for each node (nil where inference
// failed or an input is missing), reading the workflow and writing
// nothing.
func check(w *Workflow) ([]Diag, []*relation.Schema) {
	if w.err != nil {
		// The recorded builder error means the node/edge lists may be
		// inconsistent; report it alone rather than chasing ghosts.
		return []Diag{{Rule: RuleBuilder, ID: -1, Msg: w.err.Error()}}, nil
	}
	if len(w.nodes) == 0 {
		return []Diag{{Rule: RuleBuilder, ID: -1, Msg: fmt.Sprintf("workflow %q is empty", w.name)}}, nil
	}

	var diags []Diag
	report := func(rule string, n *node, msg string) {
		diags = append(diags, nodeDiag(rule, n, msg))
	}

	// Arity: every operator port connected, sinks exactly one input,
	// sources feeding something.
	for _, n := range w.nodes {
		switch n.kind {
		case kindOperator:
			if ports := n.op.Desc().Ports; len(n.inEdges) != ports {
				report(RuleArity, n, fmt.Sprintf("%d of %d input ports connected", len(n.inEdges), ports))
			}
		case kindSink:
			if len(n.inEdges) != 1 {
				report(RuleArity, n, fmt.Sprintf("sink needs exactly one input, has %d", len(n.inEdges)))
			}
		case kindSource:
			if len(n.outEdges) == 0 {
				report(RuleArity, n, "source is not connected")
			}
		}
	}

	// Signature format: the lineage layer folds signatures into node
	// fingerprints as "rev=<int>"; anything else silently reads as a
	// permanent cache miss, so flag it at plan time.
	for _, n := range w.nodes {
		if n.signature == "" {
			continue
		}
		if rev, ok := strings.CutPrefix(n.signature, "rev="); !ok || !isInt(rev) {
			report(RuleSignature, n, fmt.Sprintf("signature %q is not in rev=<int> form", n.signature))
		}
	}

	for _, n := range w.nodes {
		diags = parallelDiags(diags, n, n.parallelism)
	}

	order, err := w.topoOrder()
	if err != nil {
		// No topological order means no schemas, and the partitioning
		// rules wait for a DAG: the cycle is listed after the findings
		// that need no order (WF002, WF007, WF008), as they were found.
		diags = slices.DeleteFunc(diags, func(d Diag) bool { return d.Rule == RuleParallel })
		report(RuleCycle, nil, err.Error())
		return diags, nil
	}

	// Schema inference in topological order, into a side table so an
	// invalid plan leaves the workflow untouched. A node with a
	// missing input schema (upstream failure or dangling port) is
	// skipped silently — its cause is already on the list.
	schemas := make([]*relation.Schema, len(w.nodes))
	for _, n := range order {
		switch n.kind {
		case kindSource:
			schemas[n.id] = n.srcSchema
		case kindOperator:
			in := make([]*relation.Schema, n.op.Desc().Ports)
			for _, e := range n.inEdges {
				in[e.port] = schemas[e.from.id]
			}
			if slices.Contains(in, nil) {
				continue
			}
			s, err := n.op.OutputSchema(in)
			if err != nil {
				report(RuleSchema, n, err.Error())
				continue
			}
			schemas[n.id] = s
		case kindSink:
			if len(n.inEdges) == 1 {
				schemas[n.id] = schemas[n.inEdges[0].from.id]
			}
		}
	}

	// Hash keys must exist in the producer's schema.
	for _, n := range w.nodes {
		for _, e := range n.inEdges {
			ps := schemas[e.from.id]
			if e.part.kind == partHash && ps != nil && ps.IndexOf(e.part.key) < 0 {
				report(RuleHashKey, n, fmt.Sprintf("edge %q->%q: hash key %q not in producer schema [%s]", e.from.name, e.to.name, e.part.key, ps))
			}
		}
	}

	SortDiags(diags)
	return diags, schemas
}

// ParallelismDiag returns the first finding (WF006 before WF008) that
// running the node on the given number of workers would draw, or nil
// when it may run that wide. The optimizer asks it before widening an
// operator; the plan checker applies the same rule to every node at
// its own parallelism.
func (w *Workflow) ParallelismDiag(id NodeID, workers int) *Diag {
	n := w.nodeAt(id)
	if n == nil {
		return nil
	}
	diags := parallelDiags(nil, n, workers)
	if len(diags) == 0 {
		return nil
	}
	SortDiags(diags)
	return &diags[0]
}

// parallelDiags appends what running operator n on more than one
// worker breaks.
//
// WF008: epoch checkpoints snapshot operator state, not channel
// cursors. A blocking port must replay its whole input after a
// restore, and a round-robin feed re-deals tuples to different workers
// than the original run — hash or broadcast feeds are stable,
// round-robin is not.
//
// WF006: a stateful operator needs its input split by key — a sort or
// limit cannot be split at all, a join needs hash-partitioned inputs
// or a broadcast build side, a group-by a hash-partitioned input.
func parallelDiags(diags []Diag, n *node, workers int) []Diag {
	if n.kind != kindOperator || workers <= 1 {
		return diags
	}
	report := func(rule, msg string) {
		diags = append(diags, nodeDiag(rule, n, msg))
	}
	blocking := n.op.Desc().BlockingPorts
	for _, e := range n.inEdges {
		if e.port < len(blocking) && blocking[e.port] && e.part.kind == partRoundRobin {
			report(RuleCheckpoint, fmt.Sprintf(
				"blocking port %d is round-robin partitioned with parallelism %d; checkpoint replay would re-deal it (use hash or broadcast)",
				e.port, workers))
		}
	}
	switch n.op.(type) {
	case *SortOp, *LimitOp:
		report(RuleParallel, fmt.Sprintf("cannot run with parallelism %d", workers))
	case *HashJoinOp:
		broadcastBuild := false
		for _, e := range n.inEdges {
			if e.port == 0 && e.part.kind == partBroadcast {
				broadcastBuild = true
			}
		}
		for _, e := range n.inEdges {
			if broadcastBuild && e.port == 1 {
				// With the build side replicated to every worker, any
				// probe partitioning joins each probe row exactly once.
				continue
			}
			if e.part.kind != partHash && !(e.port == 0 && e.part.kind == partBroadcast) {
				report(RuleParallel, fmt.Sprintf("parallel join requires hash-partitioned inputs (or a broadcast build side); port %d is %s", e.port, e.part))
			}
		}
	case *GroupByOp:
		if len(n.inEdges) == 1 && n.inEdges[0].part.kind != partHash {
			report(RuleParallel, "parallel group-by requires a hash-partitioned input")
		}
	}
	return diags
}

// nodeDiag builds a diagnostic about n (nil for a workflow-level one).
func nodeDiag(rule string, n *node, msg string) Diag {
	d := Diag{Rule: rule, ID: -1, Msg: msg}
	if n != nil {
		d.Node, d.ID = n.name, n.id
	}
	return d
}

// SortDiags orders diagnostics deterministically — by rule, then node
// ID, then node name, then message — so validator and optimizer output
// is stable under golden tests and CI greps regardless of emission
// order.
func SortDiags(diags []Diag) {
	slices.SortStableFunc(diags, func(a, b Diag) int {
		return cmp.Or(cmp.Compare(a.Rule, b.Rule), cmp.Compare(a.ID, b.ID), cmp.Compare(a.Node, b.Node), cmp.Compare(a.Msg, b.Msg))
	})
}

// isInt reports whether s parses as a base-10 integer.
func isInt(s string) bool {
	_, err := strconv.Atoi(s)
	return err == nil && s != ""
}

// NumEdges returns the number of edges in the workflow graph.
func (w *Workflow) NumEdges() int {
	n := 0
	for _, nd := range w.nodes {
		n += len(nd.outEdges)
	}
	return n
}
