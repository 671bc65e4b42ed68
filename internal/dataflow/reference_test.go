package dataflow

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/relation"
)

// The first-error method the executor called and the all-diagnostics
// function behind `repro validate`, two copies of the WF rules that the
// one plan checker replaced, kept verbatim (renamed) as the oracle
// FuzzCheckMatchesReference holds check, (*Workflow).Validate and
// Validate to.

// refValidate checks the workflow: builder errors, dangling ports,
// cycles, schema propagation, hash-partition keys, and the
// parallelism constraints of stateful operators. It is idempotent and
// called automatically by Start.
func (w *Workflow) refValidate() error {
	if w.err != nil {
		return w.err
	}
	if w.validated {
		return nil
	}
	if len(w.nodes) == 0 {
		return fmt.Errorf("dataflow: workflow %q is empty", w.name)
	}

	// Every operator port connected; sinks exactly one input.
	for _, n := range w.nodes {
		switch n.kind {
		case kindOperator:
			ports := n.op.Desc().Ports
			if len(n.inEdges) != ports {
				return fmt.Errorf("dataflow: operator %q has %d of %d input ports connected", n.name, len(n.inEdges), ports)
			}
		case kindSink:
			if len(n.inEdges) != 1 {
				return fmt.Errorf("dataflow: sink %q needs exactly one input, has %d", n.name, len(n.inEdges))
			}
			if len(n.outEdges) != 0 {
				return fmt.Errorf("dataflow: sink %q has outputs", n.name)
			}
		case kindSource:
			if len(n.outEdges) == 0 {
				return fmt.Errorf("dataflow: source %q is not connected", n.name)
			}
		}
	}

	order, err := w.topoOrder()
	if err != nil {
		return err
	}

	// Schema propagation in topological order.
	for _, n := range order {
		switch n.kind {
		case kindSource:
			n.schema = n.srcSchema
		case kindOperator:
			in := make([]*relation.Schema, n.op.Desc().Ports)
			for _, e := range n.inEdges {
				in[e.port] = e.from.schema
			}
			s, err := n.op.OutputSchema(in)
			if err != nil {
				return err
			}
			n.schema = s
		case kindSink:
			n.schema = n.inEdges[0].from.schema
		}
	}

	// Resolve hash-partition keys against producer schemas and check
	// stateful-operator parallelism rules.
	for _, n := range w.nodes {
		for _, e := range n.inEdges {
			if e.part.kind == partHash {
				p := e.from.schema.IndexOf(e.part.key)
				if p < 0 {
					return fmt.Errorf("dataflow: edge %q->%q: hash key %q not in producer schema [%s]", e.from.name, e.to.name, e.part.key, e.from.schema)
				}
				e.keyPos = p
			}
		}
		if n.kind != kindOperator || n.parallelism == 1 {
			continue
		}
		switch n.op.(type) {
		case *SortOp, *LimitOp:
			return fmt.Errorf("dataflow: operator %q cannot run with parallelism %d", n.name, n.parallelism)
		case *HashJoinOp:
			// A broadcast build side replicates the full hash table to
			// every worker, so the probe side may then use any
			// partitioning (each probe row meets the whole build side
			// exactly once wherever it lands).
			broadcastBuild := false
			for _, e := range n.inEdges {
				if e.port == 0 && e.part.kind == partBroadcast {
					broadcastBuild = true
				}
			}
			for _, e := range n.inEdges {
				if broadcastBuild && e.port == 1 {
					continue
				}
				if e.part.kind != partHash && !(e.port == 0 && e.part.kind == partBroadcast) {
					return fmt.Errorf("dataflow: parallel join %q requires hash-partitioned inputs (or a broadcast build side); port %d is %s", n.name, e.port, e.part)
				}
			}
		case *GroupByOp:
			if n.inEdges[0].part.kind != partHash {
				return fmt.Errorf("dataflow: parallel group-by %q requires a hash-partitioned input", n.name)
			}
		}
	}

	w.validated = true
	return nil
}

// refDiags statically checks a workflow plan and returns every
// diagnostic it can find, without executing anything and without
// mutating the workflow. It is the multi-error counterpart of the
// (*Workflow).Validate method the executor calls: the method stops at
// the first error and caches schemas on the nodes for execution; this
// function keeps going so a `repro -validate` run or a test can see
// the whole picture at once. A nil return means the plan is sound.
func refDiags(w *Workflow) []Diag {
	if w == nil {
		return []Diag{{Rule: RuleBuilder, ID: -1, Msg: "nil workflow"}}
	}
	if w.err != nil {
		// The recorded builder error means the node/edge lists may be
		// inconsistent; report it alone rather than chasing ghosts.
		return []Diag{{Rule: RuleBuilder, ID: -1, Msg: w.err.Error()}}
	}
	if len(w.nodes) == 0 {
		return []Diag{{Rule: RuleBuilder, ID: -1, Msg: fmt.Sprintf("workflow %q is empty", w.name)}}
	}

	var diags []Diag
	report := func(rule string, n *node, msg string) {
		d := Diag{Rule: rule, ID: -1, Msg: msg}
		if n != nil {
			d.Node, d.ID = n.name, n.id
		}
		diags = append(diags, d)
	}

	// Arity: every operator port connected, sinks exactly one input,
	// sources feeding something. arityOK gates the schema pass so a
	// dangling port is reported once, not again as an inference hole.
	arityOK := make([]bool, len(w.nodes))
	for _, n := range w.nodes {
		arityOK[n.id] = true
		switch n.kind {
		case kindOperator:
			ports := n.op.Desc().Ports
			if len(n.inEdges) != ports {
				report(RuleArity, n, fmt.Sprintf("%d of %d input ports connected", len(n.inEdges), ports))
				arityOK[n.id] = false
			}
		case kindSink:
			if len(n.inEdges) != 1 {
				report(RuleArity, n, fmt.Sprintf("sink needs exactly one input, has %d", len(n.inEdges)))
				arityOK[n.id] = false
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

	// Checkpoint compatibility: epoch checkpoints snapshot operator
	// state, not channel cursors. A blocking port must replay its
	// whole input after a restore, and with parallelism > 1 a
	// round-robin feed re-deals tuples to different workers than the
	// original run — hash or broadcast feeds are stable, round-robin
	// is not.
	for _, n := range w.nodes {
		if n.kind != kindOperator || n.parallelism <= 1 {
			continue
		}
		blocking := n.op.Desc().BlockingPorts
		for _, e := range n.inEdges {
			if e.port < len(blocking) && blocking[e.port] && e.part.kind == partRoundRobin {
				report(RuleCheckpoint, n, fmt.Sprintf(
					"blocking port %d is round-robin partitioned with parallelism %d; checkpoint replay would re-deal it (use hash or broadcast)",
					e.port, n.parallelism))
			}
		}
	}

	order, err := w.topoOrder()
	if err != nil {
		// No topological order means no schema propagation; the
		// structural diagnostics above still stand.
		report(RuleCycle, nil, err.Error())
		return diags
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
			if !arityOK[n.id] {
				continue
			}
			in := make([]*relation.Schema, n.op.Desc().Ports)
			complete := true
			for _, e := range n.inEdges {
				in[e.port] = schemas[e.from.id]
				if in[e.port] == nil {
					complete = false
				}
			}
			if !complete {
				continue
			}
			s, err := n.op.OutputSchema(in)
			if err != nil {
				report(RuleSchema, n, err.Error())
				continue
			}
			schemas[n.id] = s
		case kindSink:
			if arityOK[n.id] {
				schemas[n.id] = schemas[n.inEdges[0].from.id]
			}
		}
	}

	// Hash keys must exist in the producer's schema, and stateful
	// operators must respect their parallel partitioning rules.
	for _, n := range w.nodes {
		for _, e := range n.inEdges {
			if e.part.kind != partHash {
				continue
			}
			ps := schemas[e.from.id]
			if ps == nil {
				continue
			}
			if ps.IndexOf(e.part.key) < 0 {
				report(RuleHashKey, n, fmt.Sprintf("edge %q->%q: hash key %q not in producer schema [%s]", e.from.name, e.to.name, e.part.key, ps))
			}
		}
		if n.kind != kindOperator || n.parallelism == 1 {
			continue
		}
		switch n.op.(type) {
		case *SortOp, *LimitOp:
			report(RuleParallel, n, fmt.Sprintf("cannot run with parallelism %d", n.parallelism))
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
					report(RuleParallel, n, fmt.Sprintf("parallel join requires hash-partitioned inputs (or a broadcast build side); port %d is %s", e.port, e.part))
				}
			}
		case *GroupByOp:
			if len(n.inEdges) == 1 && n.inEdges[0].part.kind != partHash {
				report(RuleParallel, n, "parallel group-by requires a hash-partitioned input")
			}
		}
	}

	SortDiags(diags)
	return diags
}

// FuzzCheckMatchesReference compiles each JSON plan twice, unvalidated,
// and holds the plan checker to the two copies of the rules it
// replaced: (*Workflow).Validate errors exactly when the old method
// did, Validate returns the old diagnostics in the old order, and a plan
// that validates carries the same schema on every node and the same key
// position on every edge.
func FuzzCheckMatchesReference(f *testing.F) {
	for _, s := range specSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		spec, err := ParseSpec([]byte(input))
		if err != nil {
			return
		}
		got, err := compile(spec)
		if err != nil {
			return
		}
		want, err := compile(spec)
		if err != nil {
			t.Fatalf("second compile failed: %v", err)
		}

		if g, w := Validate(got), refDiags(want); !reflect.DeepEqual(g, w) {
			t.Fatalf("Validate = %v\nreference  %v", g, w)
		}
		gotErr, wantErr := got.Validate(), want.refValidate()
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("Validate error %v, reference %v", gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		for i, n := range got.nodes {
			m := want.nodes[i]
			if !n.schema.Equal(m.schema) {
				t.Fatalf("node %q schema [%s], reference [%s]", n.name, n.schema, m.schema)
			}
			for j, e := range n.inEdges {
				if e.keyPos != m.inEdges[j].keyPos {
					t.Fatalf("edge %q->%q key position %d, reference %d", e.from.name, n.name, e.keyPos, m.inEdges[j].keyPos)
				}
			}
		}
	})
}
