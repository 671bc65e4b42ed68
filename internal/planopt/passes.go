package planopt

import (
	"fmt"
	"math"

	"repro/internal/dataflow"
	"repro/internal/shard"
)

// soleOutEdge returns a node's single output edge, if it has exactly
// one.
func soleOutEdge(w *dataflow.Workflow, id dataflow.NodeID) (dataflow.EdgeInfo, bool) {
	out := w.OutEdgesOf(id)
	if len(out) != 1 {
		return dataflow.EdgeInfo{}, false
	}
	return out[0], true
}

// ---------------------------------------------------------------------------
// OPT001 — filter ordering / predicate pushdown.
//
// Two adjacent filters commute exactly: both are stateless row
// predicates, so filter(a, filter(b, t)) == filter(b, filter(a, t))
// row for row, in order. Running the more selective one first shrinks
// the intermediate stream. Pushing a filter below an arbitrary UDF or
// join is NOT attempted: predicates are opaque Go closures over row
// positions, so column-independence cannot be proven statically — those
// candidates are reported as rejections.
func passFilterOrder(w *dataflow.Workflow, est estimates, r *Report) int {
	applied := 0
	ids, err := w.TopoIDs()
	if err != nil {
		return 0
	}
	for _, a := range ids {
		if _, ok := w.OperatorAt(a).(*dataflow.FilterOp); !ok {
			continue
		}
		out, sole := soleOutEdge(w, a)
		if !sole {
			continue
		}
		b := out.To
		if _, ok := w.OperatorAt(b).(*dataflow.FilterOp); !ok {
			// Explain the classic pushdown this engine cannot prove:
			// moving the filter below its producer needs to know which
			// columns the predicate reads, and a Go closure doesn't say.
			if prod := producerOf(w, a); prod >= 0 {
				switch w.OperatorAt(prod).(type) {
				case *dataflow.MapOp, *dataflow.HashJoinOp:
					r.rejected(RuleFilterOrder, w, a,
						"cannot push filter below %q: predicate is an opaque row closure, column independence unprovable", w.NameOf(prod))
				}
			}
			continue
		}
		ina, inb := est[producerOf(w, a)], est[a]
		outb := est[b]
		if ina == nil || inb == nil || outb == nil || ina.rows <= 0 || inb.rows <= 0 {
			continue
		}
		selA := inb.rows / ina.rows
		selB := outb.rows / inb.rows
		if selB >= selA-0.01 {
			r.rejected(RuleFilterOrder, w, a,
				"filter order already optimal: selectivity %.2f before %.2f", selA, selB)
			continue
		}
		if err := w.SwapAdjacentUnary(a, b); err != nil {
			r.rejected(RuleFilterOrder, w, a, "%v", err)
			continue
		}
		r.applied(RuleFilterOrder, w, b,
			"run %q (selectivity %.2f) before %q (selectivity %.2f)", w.NameOf(b), selB, w.NameOf(a), selA)
		applied++
	}
	return applied
}

// producerOf returns the producer of a unary node's single input edge,
// or -1.
func producerOf(w *dataflow.Workflow, id dataflow.NodeID) dataflow.NodeID {
	in := w.InEdgesOf(id)
	if len(in) != 1 {
		return -1
	}
	return in[0].From
}

// ---------------------------------------------------------------------------
// OPT002 — projection pushdown below sort.
//
// sort -> project becomes project -> sort when the projection keeps
// every sort key. Both forms are exact: SortBy is stable and compares
// only the sort fields, the projection preserves row order, and the
// kept columns are identical — so the output streams match row for row
// while the sort buffers narrower tuples.
func passProjectPush(w *dataflow.Workflow, _ estimates, r *Report) int {
	applied := 0
	ids, err := w.TopoIDs()
	if err != nil {
		return 0
	}
	for _, s := range ids {
		sop, ok := w.OperatorAt(s).(*dataflow.SortOp)
		if !ok {
			continue
		}
		out, sole := soleOutEdge(w, s)
		if !sole {
			continue
		}
		p := out.To
		pop, ok := w.OperatorAt(p).(*dataflow.ProjectOp)
		if !ok {
			continue
		}
		kept := make(map[string]bool, len(pop.Names))
		for _, n := range pop.Names {
			kept[n] = true
		}
		missing := ""
		for _, f := range sop.Fields {
			if !kept[f] {
				missing = f
				break
			}
		}
		if missing != "" {
			r.rejected(RuleProjectPush, w, p,
				"projection drops sort key %q; pushing it below %q would change the order", missing, w.NameOf(s))
			continue
		}
		if err := w.SwapAdjacentUnary(s, p); err != nil {
			r.rejected(RuleProjectPush, w, p, "%v", err)
			continue
		}
		r.applied(RuleProjectPush, w, p,
			"project %d columns before %q sorts them", len(pop.Names), w.NameOf(s))
		applied++
	}
	return applied
}

// ---------------------------------------------------------------------------
// OPT003 — join input reordering.
//
// An inner hash join builds a table of port 0 and streams port 1 past
// it; building the smaller side shrinks both the table and the
// log-sized probe cost. The swap installs a column permutation on the
// operator so downstream schemas are untouched; output order follows
// the new probe side, which is multiset-equal — and every task restores
// order downstream (sorted result assembly or total-order ranking).
func passJoinSwap(w *dataflow.Workflow, est estimates, r *Report) error {
	ids, err := w.TopoIDs()
	if err != nil {
		return err
	}
	for _, id := range ids {
		if _, ok := w.OperatorAt(id).(*dataflow.HashJoinOp); !ok {
			continue
		}
		in := w.InEdgesOf(id)
		if len(in) != 2 {
			continue
		}
		eb, ep := est[in[0].From], est[in[1].From]
		if eb == nil || ep == nil {
			continue
		}
		if eb.assumed || ep.assumed {
			r.rejected(RuleJoinSwap, w, id, "input cardinality unknown (opaque upstream operator)")
			continue
		}
		bb, pb := eb.bytes(), ep.bytes()
		if bb <= pb {
			r.rejected(RuleJoinSwap, w, id,
				"build side already smaller: est %.0f rows / %.0f KB vs probe %.0f rows / %.0f KB",
				eb.rows, bb/1024, ep.rows, pb/1024)
			continue
		}
		if err := w.SwapJoinInputs(id); err != nil {
			r.rejected(RuleJoinSwap, w, id, "%v", err)
			continue
		}
		r.applied(RuleJoinSwap, w, id,
			"swap inputs: build est %.0f rows / %.0f KB, probe est %.0f rows / %.0f KB — build the smaller side",
			eb.rows, bb/1024, ep.rows, pb/1024)
	}
	return nil
}

// ---------------------------------------------------------------------------
// OPT004 — exchange kind per repartition edge.
//
// On a sharded topology a parallel hash join normally repartitions both
// sides across the NIC. When the build side is small enough, replicating
// it to every node and leaving the probe stream local moves fewer bytes
// in total. Correctness: a broadcast build gives every worker the full
// hash table, so each probe row joins exactly once wherever round-robin
// leaves it — multiset-equal output.
func passExchange(w *dataflow.Workflow, est estimates, opt Options, r *Report) error {
	if !opt.Topology.Sharded() {
		return nil
	}
	nodes := opt.Topology.NumNodes()
	ids, err := w.TopoIDs()
	if err != nil {
		return err
	}
	for _, id := range ids {
		if _, ok := w.OperatorAt(id).(*dataflow.HashJoinOp); !ok {
			continue
		}
		if w.ParallelismOf(id) < 2 {
			continue
		}
		in := w.InEdgesOf(id)
		if len(in) != 2 || !in[0].Part.IsHash() || !in[1].Part.IsHash() {
			continue
		}
		eb, ep := est[in[0].From], est[in[1].From]
		if eb == nil || ep == nil || eb.assumed || ep.assumed {
			r.rejected(RuleExchange, w, id, "input volumes unknown (opaque upstream operator)")
			continue
		}
		bb, pb := int64(eb.bytes()), int64(ep.bytes())
		if mem := opt.Topology.WorkerMem(); mem > 0 && bb > mem/2 {
			r.rejected(RuleExchange, w, id,
				"build side est %d KB exceeds half the %d KB per-worker budget; broadcast would replicate it everywhere", bb/1024, mem/1024)
			continue
		}
		if !shard.BroadcastWins(opt.Model, bb, pb, nodes) {
			r.rejected(RuleExchange, w, id,
				"hash repartition cheaper: broadcast would cross %d KB, hash crosses %d KB",
				shard.ExBroadcast.CrossBytes(bb, nodes)/1024,
				(shard.ExHash.CrossBytes(bb, nodes)+shard.ExHash.CrossBytes(pb, nodes))/1024)
			continue
		}
		if err := w.SetEdgePartitioning(id, 0, dataflow.Broadcast()); err != nil {
			return err
		}
		if err := w.SetEdgePartitioning(id, 1, dataflow.RoundRobin()); err != nil {
			return err
		}
		r.applied(RuleExchange, w, id,
			"broadcast build est %d KB to %d nodes; probe est %d KB stays local (hash would cross %d KB)",
			bb/1024, nodes, pb/1024,
			(shard.ExHash.CrossBytes(bb, nodes)+shard.ExHash.CrossBytes(pb, nodes))/1024)
	}
	return nil
}

// ---------------------------------------------------------------------------
// OPT006 — automatic per-operator parallelism.
//
// Task builders hand-set parallelism to the run's worker knob; the
// topology usually has more vCPU slots than that. Raising a stateless
// (or correctly partitioned stateful) operator to the topology's
// capacity only re-deals rows across more workers: stateless operators
// are row-local, hash-partitioned joins and group-bys keep each key on
// one worker, so the output multiset is unchanged. Operators pinned to
// one worker are never touched — a single worker is how the plan
// encodes an ordered stream.
func passParallelism(w *dataflow.Workflow, opt Options, r *Report) error {
	capacity := opt.MaxParallelism
	ids, err := w.TopoIDs()
	if err != nil {
		return err
	}
	for _, id := range ids {
		op := w.OperatorAt(id)
		if op == nil {
			continue
		}
		p := w.ParallelismOf(id)
		if p < 2 || p >= capacity {
			continue
		}
		switch op.(type) {
		case *dataflow.HashJoinOp, *dataflow.GroupByOp:
			// Stateful, but a valid partitioning keeps each key on one
			// worker.
		default:
			if !op.Desc().Stateless {
				continue
			}
		}
		if d := w.ParallelismDiag(id, capacity); d != nil {
			r.rejected(RuleParallelism, w, id, "%s: %s", d.Rule, d.Msg)
			continue
		}
		if err := w.SetParallelism(id, capacity); err != nil {
			return err
		}
		r.applied(RuleParallelism, w, id, "workers %d -> %d (topology capacity)", p, capacity)
	}
	return nil
}

// ---------------------------------------------------------------------------
// OPT007 — source batch-size selection.
//
// The engine's auto batch size divides every input into ~96 batches
// regardless of who consumes them. Batch granularity is what pipelines
// a plan: a consumer's batch job becomes ready only when the matching
// upstream batch lands, and the final batch's transfer latency sits on
// the critical path, so wide consumers want at least a few batches per
// worker in flight. With the (post-OPT006) consumer parallelism known,
// the optimizer refines batching to min four waves per worker — never
// coarser than auto. Batching never changes row content or per-worker
// order, so the rewrite is exact on sequential plans and multiset-safe
// elsewhere.
func passBatch(w *dataflow.Workflow, est estimates, r *Report) error {
	ids, err := w.TopoIDs()
	if err != nil {
		return err
	}
	for _, id := range ids {
		if !w.IsSource(id) || w.BatchSizeOf(id) != 0 {
			continue
		}
		e := est[id]
		if e == nil || e.rows <= 0 {
			continue
		}
		maxPar := 1
		for _, edge := range w.OutEdgesOf(id) {
			if p := w.ParallelismOf(edge.To); p > maxPar {
				maxPar = p
			}
		}
		rows := int(e.rows)
		nb := 4 * maxPar
		if nb < 96 {
			nb = 96 // never coarser than the auto policy
		}
		batch := int(math.Ceil(e.rows / float64(nb)))
		if batch < 1 {
			batch = 1
		}
		if batch > 2048 {
			batch = 2048
		}
		if batch == dataflow.AutoBatchSize(rows) {
			continue
		}
		if err := w.SetSourceBatch(id, batch); err != nil {
			return err
		}
		r.applied(RuleBatch, w, id,
			"batch %d rows (auto %d): ~%d batches keep %d consumer workers fed",
			batch, dataflow.AutoBatchSize(rows), nb, maxPar)
	}
	return nil
}

// ---------------------------------------------------------------------------
// OPT005 — operator fusion.
//
// An edge between two operators costs queueing, per-batch latency and a
// worker-startup for the downstream node. When the downstream operator
// is stateless, non-blocking, unary, single-producer, same-language and
// runs at the same parallelism over a round-robin edge, executing it
// inside the upstream worker produces exactly the stream the edge would
// have delivered — batch for batch, in order — so fusion is an exact
// rewrite. Fusion runs last: earlier passes see only primitive
// operators.
func passFusion(w *dataflow.Workflow, r *Report) error {
fuse:
	for {
		ids, err := w.TopoIDs()
		if err != nil {
			return err
		}
		// Fuse the first fusable edge in topological order, then look
		// again on the rewritten graph.
		for _, a := range ids {
			if b, ok, _ := fusion(w, a); ok {
				nameA, nameB := w.NameOf(a), w.NameOf(b)
				if err := w.Fuse(a, b); err != nil {
					return err
				}
				r.applied(RuleFusion, w, a, "fused %q into %q: one edge, one startup fewer", nameB, nameA)
				continue fuse
			}
		}
		break
	}
	// Emit near-miss rejections once, on the settled graph.
	ids, err := w.TopoIDs()
	if err != nil {
		return err
	}
	for _, a := range ids {
		if b, _, reason := fusion(w, a); reason != "" {
			r.rejected(RuleFusion, w, b, "%s", reason)
		}
	}
	return nil
}

// fusion judges the edge out of node a. It returns a's consumer b and
// whether a -> b fuses; when it does not, reason says why, or is empty
// when the edge is not a near miss worth explaining.
func fusion(w *dataflow.Workflow, a dataflow.NodeID) (b dataflow.NodeID, ok bool, reason string) {
	aop := w.OperatorAt(a)
	if aop == nil {
		return 0, false, ""
	}
	e, sole := soleOutEdge(w, a)
	if !sole {
		return 0, false, ""
	}
	b = e.To
	bop := w.OperatorAt(b)
	if bop == nil {
		return b, false, ""
	}
	bd := bop.Desc()
	if bd.Ports != 1 || len(w.InEdgesOf(b)) != 1 {
		return b, false, ""
	}
	ad := aop.Desc()
	switch {
	case !bd.Stateless:
		return b, false, fmt.Sprintf("downstream operator %q is stateful; fusing would change its input stream", bd.Name)
	case bd.BlockingPorts[0]:
		return b, false, fmt.Sprintf("downstream operator %q blocks; fusion would serialize the pipeline", bd.Name)
	case !e.Part.IsRoundRobin():
		return b, false, fmt.Sprintf("edge is %s; fusing would bypass the repartition", e.Part)
	case w.ParallelismOf(a) != w.ParallelismOf(b):
		return b, false, fmt.Sprintf("parallelism differs (%d vs %d); fusing would change worker assignment",
			w.ParallelismOf(a), w.ParallelismOf(b))
	case ad.Language != bd.Language:
		return b, false, fmt.Sprintf("languages differ (%s vs %s); fused work would be mispriced", ad.Language, bd.Language)
	}
	switch aop.(type) {
	case *dataflow.SortOp, *dataflow.LimitOp:
		return b, false, ""
	}
	return b, true, ""
}
