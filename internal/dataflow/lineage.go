package dataflow

// Lineage integration: Texera-style operator-granularity result reuse.
//
// A node's fingerprint covers the workflow identity, cost-model
// version, node name/kind/signature/parallelism, and per input port the
// *output digest* of the upstream node. Defining provenance over output
// digests (not upstream fingerprints) is what gives early cutoff: when
// an edited upstream recomputes to a bit-identical output, every
// downstream fingerprint is unchanged and the next run stops dirtying
// the DAG right below the edit.
//
// At plan time an upstream's output digest is known only if that
// upstream is itself a cache hit, so planLineage resolves fingerprints
// in topological order while all upstreams hit; the first miss makes
// the whole downstream cone dirty (its fingerprints are computed later,
// at commit time, when the freshly materialized outputs have digests).
// Each node is then assigned a mode:
//
//   - lmDirty:  cache miss — the node executes normally, its per-worker
//     output is captured, and finish() commits the materialized table as
//     a new artifact version (the commit tax lands in the node's end
//     work).
//   - lmReplay: cache hit with at least one dirty consumer — the node
//     does not execute; the executor scans the cached table as a source
//     scans its own, into the dirty consumers' ports, paying the artifact
//     fetch instead of the node's recorded compute.
//   - lmSkip:   cache hit with no dirty consumer — the node is elided
//     from execution and (except for sinks, whose cached tables are
//     fetched so the run still returns complete results) from the trace.
//
// Only an edge into a dirty consumer gets a queue, so a replay feeds
// the consumers that execute and nothing else. Because a hit requires
// every upstream to hit, all consumers of dirty nodes are dirty: every
// edge out of a node that executes is wired. All store reads are priced
// at plan time and all commits at finish time, in deterministic
// topological order, so the artifact repo's LRU and spill state evolve
// identically across runs.

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/cost"
	"repro/internal/lineage"
	"repro/internal/relation"
)

type lmMode int8

const (
	lmDirty lmMode = iota
	lmReplay
	lmSkip
)

type lineagePlan struct {
	run       *lineage.Run
	scope     string
	mode      []lmMode
	fp        []lineage.Fingerprint // resolved at plan time for hit-input nodes
	art       []*lineage.Artifact   // hit artifact per node, nil on miss
	fetchSec  []float64             // priced at plan time (replay nodes, skip sinks)
	commitSec []float64             // filled by commitLineage
}

func lineageKey(n *node) string {
	return fmt.Sprintf("node:%d:%s", n.id, n.name)
}

// nodeHasher folds everything about a node except its inputs: identity,
// configuration, cost-model version, and (for sources) the input data
// itself.
func (ex *Execution) nodeHasher(n *node, scope string) *lineage.Hasher {
	h := lineage.NewHasher().
		String(ex.wf.name).
		String(scope).
		Uint64(ex.model.Digest()).
		String(n.name).
		String(n.kind.String()).
		String(n.signature).
		Int(n.parallelism).
		Int(n.batchSize)
	if n.kind == kindSource {
		h.Uint64(relation.Digest(n.table))
	}
	return h
}

// foldInputs mixes the node's upstream output digests in port order.
func foldInputs(h *lineage.Hasher, n *node, digestOf func(NodeID) uint64) {
	ins := append([]*edge(nil), n.inEdges...)
	slices.SortFunc(ins, func(a, b *edge) int { return cmp.Compare(a.port, b.port) })
	for _, e := range ins {
		h.Int(e.port)
		h.Uint64(digestOf(e.from.id))
	}
}

// planLineage fingerprints every resolvable node, consults the store,
// and assigns execution modes. Runs single-threaded before the node
// runtimes are built.
func (ex *Execution) planLineage() error {
	store := ex.cfg.Lineage
	if store == nil {
		return nil
	}
	order, err := ex.wf.topoOrder()
	if err != nil {
		return err
	}
	scope := ex.cfg.LineageScope
	if scope == "" {
		scope = "workflow:" + ex.wf.name
	}
	run := store.Begin(scope, ex.cfg.Telemetry)
	run.SetUnits(len(ex.wf.nodes))
	lin := &lineagePlan{
		run:       run,
		scope:     scope,
		mode:      make([]lmMode, len(ex.wf.nodes)),
		fp:        make([]lineage.Fingerprint, len(ex.wf.nodes)),
		art:       make([]*lineage.Artifact, len(ex.wf.nodes)),
		fetchSec:  make([]float64, len(ex.wf.nodes)),
		commitSec: make([]float64, len(ex.wf.nodes)),
	}

	// Pass 1: resolve fingerprints upstream-first while provenance is
	// known, and look them up. A node below any miss is dirty without a
	// lookup — its inputs are being recomputed, so its fingerprint only
	// exists once those outputs have digests (commit time).
	hit := make([]bool, len(ex.wf.nodes))
	for _, n := range order {
		allHit := true
		for _, e := range n.inEdges {
			if !hit[e.from.id] {
				allHit = false
				break
			}
		}
		if !allHit {
			run.MissDownstream()
			continue
		}
		h := ex.nodeHasher(n, scope)
		foldInputs(h, n, func(up NodeID) uint64 { return lin.art[up].Digest })
		fp := h.Sum()
		lin.fp[n.id] = fp
		if a := run.Lookup(lineageKey(n), fp); a != nil {
			hit[n.id] = true
			lin.art[n.id] = a
		}
	}

	// Pass 2: modes, and plan-time fetch pricing in topological order.
	for _, n := range order {
		if !hit[n.id] {
			continue
		}
		dirtyConsumer := false
		for _, e := range n.outEdges {
			if !hit[e.to.id] {
				dirtyConsumer = true
				break
			}
		}
		switch {
		case dirtyConsumer:
			lin.mode[n.id] = lmReplay
			lin.fetchSec[n.id] = run.Fetch(lin.art[n.id])
		case n.kind == kindSink:
			// Elided from execution, but the run's result tables must
			// still be complete: fetch the cached sink output.
			lin.mode[n.id] = lmSkip
			lin.fetchSec[n.id] = run.Fetch(lin.art[n.id])
		default:
			lin.mode[n.id] = lmSkip
		}
	}
	ex.lin = lin
	return nil
}

// commitLineage materializes every dirty node's output as a new
// artifact version, walking the DAG in (deterministic) topological
// order so each dirty node's fingerprint can fold the freshly computed
// output digests of its upstreams. The commit tax is recorded per node
// and folded into its end work by buildTrace.
func (ex *Execution) commitLineage() {
	lin := ex.lin
	if lin == nil {
		return
	}
	order, err := ex.wf.topoOrder()
	if err != nil {
		return // Start already validated; unreachable
	}
	outDigest := make([]uint64, len(ex.wf.nodes))
	for _, n := range order {
		if lin.mode[n.id] != lmDirty {
			outDigest[n.id] = lin.art[n.id].Digest
			continue
		}
		rt := ex.rts[n.id]
		var table *relation.Table
		switch n.kind {
		case kindSource:
			table = n.table
		case kindSink:
			table = rt.sinkTable
		default:
			// Join the workers' captures once, at exact size: a capturing
			// join builds every row (see Start), so the node's out count
			// is the number of rows it emitted.
			rows := make([]relation.Tuple, 0, rt.outTuples.Load())
			for wk := range rt.capture {
				rows = append(rows, rt.capture[wk].Batch()...)
			}
			table = relation.TableOver(n.schema, rows)
		}
		h := ex.nodeHasher(n, lin.scope)
		foldInputs(h, n, func(up NodeID) uint64 { return outDigest[up] })
		fp := h.Sum()
		lin.fp[n.id] = fp
		byPort, end, open := rt.mergedWork()
		secs := end.Seconds(n.lang()) + open.Seconds(n.lang())
		for _, w := range byPort {
			secs += w.Seconds(n.lang())
		}
		art, putSecs := lin.run.Commit(lineageKey(n), fp, table, secs)
		lin.commitSec[n.id] = putSecs
		outDigest[n.id] = art.Digest
	}
}

// lang returns the node's costing language.
func (n *node) lang() cost.Language {
	if n.kind == kindOperator {
		return n.op.Desc().Language
	}
	return cost.Python
}
