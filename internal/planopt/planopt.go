// Package planopt is the cost-based plan optimizer: a static analysis
// pass pipeline over the dataflow IR that first infers per-node
// cardinality and volume estimates (sampling real rows through the
// relational operators, without executing the plan), then applies
// provably output-preserving rewrites — filter ordering, projection
// pushdown, join input reordering, optimizer-chosen exchange kinds,
// automatic per-operator parallelism, and source batch sizing — and
// finally fuses adjacent same-worker operators. Every rewrite, applied
// or rejected, is explained by an OPT0xx diagnostic in the validator's
// Diag shape.
//
// The optimizer's contract is that outputs are bit-identical with and
// without it: each pass either preserves the output stream exactly
// (single-worker reorderings, fusion) or preserves it as a multiset
// feeding an order-restoring stage the tasks already have (sorted
// result assembly, total-order ranking). The experiments assert that
// contract on every task at every topology.
package planopt

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/dataflow"
	"repro/internal/shard"
)

// Optimizer rule IDs, continuing the WF0xx plan-diagnostic namespace.
const (
	// RuleFilterOrder: adjacent filters reordered so the more selective
	// one runs first.
	RuleFilterOrder = "OPT001"
	// RuleProjectPush: a projection pushed below a sort so the sort
	// moves fewer bytes.
	RuleProjectPush = "OPT002"
	// RuleJoinSwap: a hash join's build and probe sides exchanged so
	// the smaller input is built.
	RuleJoinSwap = "OPT003"
	// RuleExchange: a repartitioning edge's exchange kind chosen from
	// estimated volumes (broadcast build vs hash both sides).
	RuleExchange = "OPT004"
	// RuleFusion: two adjacent operators fused into one node.
	RuleFusion = "OPT005"
	// RuleParallelism: an operator's hand-set worker count raised to
	// the topology's capacity.
	RuleParallelism = "OPT006"
	// RuleBatch: a source's batch size chosen from its cardinality and
	// consumer parallelism.
	RuleBatch = "OPT007"
)

// Options configures one optimizer run.
type Options struct {
	// Model prices rewrites; nil uses cost.Default().
	Model *cost.Model
	// Topology is the cluster the plan will run on; exchange choice is
	// active only on sharded (multi-node) topologies.
	Topology shard.Topology
	// MaxParallelism caps the parallelism pass; 0 derives it from the
	// topology's total worker vCPUs.
	MaxParallelism int
}

// sampleRows bounds the row sample threaded through the estimator.
const sampleRows = 512

func (o Options) normalize() Options {
	if o.Model == nil {
		o.Model = cost.Default()
	}
	if o.MaxParallelism <= 0 {
		o.MaxParallelism = o.Topology.TotalVCPUs()
	}
	return o
}

// ConfigOptions derives optimizer options from a run config — the
// bridge the task builders use for `repro run -optimize`.
func ConfigOptions(cfg core.RunConfig) Options {
	return Options{
		Model:    cfg.Model,
		Topology: cfg.Topology(),
	}
}

// Report is the outcome of one optimizer run: every rewrite explained,
// sorted deterministically (rule, then node).
type Report struct {
	Diags    []dataflow.Diag `json:"diags,omitempty"`
	Applied  int             `json:"applied"`
	Rejected int             `json:"rejected"`
}

func (r *Report) applied(rule string, w *dataflow.Workflow, id dataflow.NodeID, format string, args ...any) {
	r.Diags = append(r.Diags, dataflow.Diag{
		Rule: rule, Node: w.NameOf(id), ID: id,
		Msg: "applied: " + fmt.Sprintf(format, args...),
	})
	r.Applied++
}

func (r *Report) rejected(rule string, w *dataflow.Workflow, id dataflow.NodeID, format string, args ...any) {
	r.Diags = append(r.Diags, dataflow.Diag{
		Rule: rule, Node: w.NameOf(id), ID: id,
		Msg: "rejected: " + fmt.Sprintf(format, args...),
	})
	r.Rejected++
}

// Optimize rewrites the workflow in place and reports every decision.
// The workflow must validate before; the rewritten plan must then draw
// no diagnostic at all, advisory WF007 and WF008 included, or Optimize
// fails.
func Optimize(w *dataflow.Workflow, opt Options) (*Report, error) {
	opt = opt.normalize()
	if err := w.Validate(); err != nil {
		return nil, err
	}
	r := &Report{}

	est, err := inferEstimates(w, sampleRows)
	if err != nil {
		return nil, err
	}
	structural := passFilterOrder(w, est, r) + passProjectPush(w, est, r)
	if structural > 0 {
		// Reordered chains change intermediate cardinalities; rebuild
		// before the volume-sensitive passes.
		if est, err = inferEstimates(w, sampleRows); err != nil {
			return nil, err
		}
	}
	if err := passJoinSwap(w, est, r); err != nil {
		return nil, err
	}
	if err := passExchange(w, est, opt, r); err != nil {
		return nil, err
	}
	if err := passParallelism(w, opt, r); err != nil {
		return nil, err
	}
	if err := passBatch(w, est, r); err != nil {
		return nil, err
	}
	if err := passFusion(w, r); err != nil {
		return nil, err
	}

	if ds := dataflow.Validate(w); len(ds) > 0 {
		return nil, fmt.Errorf("planopt: rewritten plan has %d diagnostics, first: %s", len(ds), ds[0])
	}
	dataflow.SortDiags(r.Diags)
	return r, nil
}
