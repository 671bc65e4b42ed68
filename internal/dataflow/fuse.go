package dataflow

import (
	"fmt"

	"repro/internal/relation"
)

// FusedOp runs two operators as one node: A's output batches are piped
// straight into B inside the same worker, eliminating the intermediate
// edge (its queueing, serde and per-batch latency) and B's startup.
// B must be unary; A may have any port shape. The fused node keeps A's
// input ports and blocking profile, and is stateless only when both
// halves are.
//
// Safety: within one worker, B sees exactly the batches A emits, in
// emission order — the same stream the intermediate edge would have
// carried to one of B's workers. When B is stateless its output does
// not depend on how that stream was split across workers, so fusing at
// A's parallelism (the optimizer's policy) preserves the operator's
// output exactly per worker and the workflow's output as a multiset.
type FusedOp struct {
	A, B Operator
}

// NewFused fuses a into b (a's output feeds b). It validates the port
// shapes; semantic eligibility (B stateless, languages, parallelism) is
// the optimizer's policy.
func NewFused(a, b Operator) (*FusedOp, error) {
	if a == nil || b == nil {
		return nil, fmt.Errorf("dataflow: fuse: nil operator")
	}
	if b.Desc().Ports != 1 {
		return nil, fmt.Errorf("dataflow: fuse: %q has %d input ports; the downstream half must be unary", b.Desc().Name, b.Desc().Ports)
	}
	return &FusedOp{A: a, B: b}, nil
}

// Desc combines the halves: A's shape and language under a joint name.
func (f *FusedOp) Desc() Desc {
	da, db := f.A.Desc(), f.B.Desc()
	return Desc{
		Name:          da.Name + "+" + db.Name,
		Language:      da.Language,
		Ports:         da.Ports,
		BlockingPorts: da.BlockingPorts,
		Stateless:     da.Stateless && db.Stateless,
	}
}

// OutputSchema chains A's schema rule into B's.
func (f *FusedOp) OutputSchema(in []*relation.Schema) (*relation.Schema, error) {
	mid, err := f.A.OutputSchema(in)
	if err != nil {
		return nil, err
	}
	return f.B.OutputSchema([]*relation.Schema{mid})
}

// NewInstance returns a worker running both halves back to back: A
// made for the node's input schemas, then B for A's output schema, so
// A's setup work is charged before B's. When A is a hash join and B a
// filter, the join judges its rows against B's predicate and builds
// only the ones B keeps.
func (f *FusedOp) NewInstance(ec ExecCtx, in []*relation.Schema) (Instance, error) {
	a, err := f.A.NewInstance(ec, in)
	if err != nil {
		return nil, err
	}
	fi := &fusedInstance{op: f, a: a}
	if fi.mid[0], err = f.A.OutputSchema(in); err != nil {
		return nil, err
	}
	if fi.b, err = f.B.NewInstance(ec, fi.mid[:]); err != nil {
		return nil, err
	}
	join, jok := a.(*joinInstance)
	filter, fok := fi.b.(*filterInstance)
	if jok && fok {
		join.pushFilter(filter.op.Keep)
		fi.join, fi.filter = join, filter
	}
	return fi, nil
}

type fusedInstance struct {
	op   *FusedOp
	a, b Instance
	mid  [1]*relation.Schema // B's input schemas, held here so making B costs no slice of its own

	// join and filter are a and b when the join is bound to the filter's
	// predicate; nil otherwise.
	join   *joinInstance
	filter *filterInstance
}

func (fi *fusedInstance) Process(ec ExecCtx, port int, rows []relation.Tuple) ([]relation.Tuple, error) {
	mid, err := fi.a.Process(ec, port, rows)
	if err != nil {
		return nil, err
	}
	if fi.join != nil {
		// The batch the join judged whole is what B would have seen.
		if len(mid) == 0 && fi.join.dropped == 0 {
			return nil, nil
		}
		return fi.filter.process(ec, mid, fi.join.dropped), nil
	}
	if len(mid) == 0 {
		return nil, nil
	}
	return fi.b.Process(ec, 0, mid)
}

func (fi *fusedInstance) EndPort(ec ExecCtx, port int) ([]relation.Tuple, error) {
	mid, err := fi.a.EndPort(ec, port)
	if err != nil {
		return nil, err
	}
	var out []relation.Tuple
	if len(mid) > 0 {
		out, err = fi.b.Process(ec, 0, mid)
		if err != nil {
			return nil, err
		}
	}
	// Ports arrive in ascending order, so A is fully drained exactly
	// when its last port ends; only then may B's port end too.
	if port == fi.op.A.Desc().Ports-1 {
		tail, err := fi.b.EndPort(ec, 0)
		if err != nil {
			return nil, err
		}
		out = append(out, tail...)
	}
	return out, nil
}

// Fuse folds node b into node a, replacing a's operator with
// FusedOp{a.op, b.op} and re-pointing b's output edges to a. The edge
// a -> b disappears; node IDs are renumbered. Structural requirements:
// a and b are operators, a's only consumer is b (single edge), b is
// unary with a as its only producer.
func (w *Workflow) Fuse(a, b NodeID) error {
	na, nb := w.nodeAt(a), w.nodeAt(b)
	if na == nil || nb == nil || na.kind != kindOperator || nb.kind != kindOperator {
		return fmt.Errorf("dataflow: fuse: #%d and #%d must both be operators", a, b)
	}
	if len(na.outEdges) != 1 || na.outEdges[0].to != nb || len(nb.inEdges) != 1 {
		return fmt.Errorf("dataflow: fuse: %q must feed %q alone", na.name, nb.name)
	}
	fused, err := NewFused(na.op, nb.op)
	if err != nil {
		return err
	}
	na.op = fused
	na.name = fused.Desc().Name
	na.signature = mergeSignatures(na.signature, nb.signature)
	na.outEdges = nb.outEdges
	for _, e := range na.outEdges {
		e.from = na
	}
	nodes := w.nodes[:0]
	for _, n := range w.nodes {
		if n != nb {
			nodes = append(nodes, n)
		}
	}
	w.nodes = nodes
	for i, n := range w.nodes {
		n.id = NodeID(i)
	}
	w.validated = false
	return nil
}
