// Package kge implements Task 4 of the reproduced paper: multi-step
// inference with knowledge-graph embeddings (paper Figure 7).
// Candidate Amazon products are filtered for availability, matched
// with their embeddings from a pre-trained TransE table, scored
// against a target user, ranked, and mapped back to products through a
// reverse lookup.
//
// The task's logic is decomposed into six fuseable stages so the same
// implementation yields every configuration the paper measures: the
// operator-count sweep of Figure 12b, the Python-versus-Scala join of
// Table I, the data-scale sweep of Figure 13c and the worker sweep of
// Figure 14c.
package kge

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/datagen"
	"repro/internal/ml/kge"
	"repro/internal/par"
	"repro/internal/pipeline"
	"repro/internal/relation"
)

// Params sizes the task.
type Params struct {
	// Products is the candidate count; the paper uses 6.8k and 68k.
	Products int
	// Users in the purchase graph (default 8); the task recommends for
	// user 0.
	Users int
	// TopK is the recommendation count (default 10).
	TopK int
	// Seed drives generation and the pre-trained embeddings.
	Seed uint64
	// Variant selects the workflow configuration.
	Variant Variant
}

// Variant selects the workflow decomposition.
type Variant struct {
	// Ops is the number of workflow operators the pipeline is split
	// into, 1..6 (default 3, the paper's standard layout; Figure 12b
	// sweeps the full range).
	Ops int
	// ScalaJoin replaces the Python operator performing the embedding
	// join with nine native Scala operators implementing the same
	// logic — the Table I comparison.
	ScalaJoin bool
}

// Task is the KGE workload bound to a generated world and pre-trained
// model. The embedded pipeline.Base runs it; edit stages are the
// Figure 7 stageNames values (filter-instock, embedding-join,
// compute-delta, compute-distance, rank-topk, reverse-lookup).
type Task struct {
	pipeline.Base
	params Params
	world  *datagen.ProductWorld
	model  *kge.Model
	user   string
	relVec []float64 // "buys" relation embedding
	userV  []float64 // target user embedding
}

// embedding dimensionality of the synthetic pre-trained model.
const embDim = 16

// The registry entry makes the task runnable by name from the CLI and
// the experiment harness; the default size is the paper's full scale.
func init() {
	core.RegisterTask("kge", 6800, func(size int, seed uint64) (core.Task, error) {
		return New(Params{Products: size, Seed: seed})
	})
}

// New generates the world, pre-trains the embedding model and returns
// the task.
func New(p Params) (*Task, error) {
	if p.Products <= 0 {
		return nil, fmt.Errorf("kge: products must be positive, got %d", p.Products)
	}
	if p.Users == 0 {
		p.Users = 8
	}
	if p.Users < 0 {
		return nil, fmt.Errorf("kge: negative users %d", p.Users)
	}
	if p.TopK == 0 {
		p.TopK = 10
	}
	if p.TopK < 0 {
		return nil, fmt.Errorf("kge: negative top-k %d", p.TopK)
	}
	if p.Variant.Ops == 0 {
		// The paper's standard KGE workflow has three Python
		// operators (Table I); Figures 13c/14c measure it.
		p.Variant.Ops = 3
	}
	if p.Variant.Ops < 1 || p.Variant.Ops > 6 {
		return nil, fmt.Errorf("kge: variant ops must be in 1..6, got %d", p.Variant.Ops)
	}
	world := datagen.GenerateProducts(p.Products, p.Users, 0.1, p.Seed)
	model, err := kge.New(world.EntityNames(), []string{"buys"}, embDim, p.Seed+1)
	if err != nil {
		return nil, err
	}
	// "Pre-trained": fit the embeddings to the purchase graph once at
	// task construction; the measured pipelines only load and use it.
	if err := model.Train(world.Purchases, kge.TrainConfig{Epochs: 60, Seed: p.Seed + 2, Negatives: 2}); err != nil {
		return nil, err
	}
	t := &Task{params: p, world: world, model: model, user: world.Users[0]}
	t.Bind(t)
	t.relVec, err = model.RelationEmbedding("buys")
	if err != nil {
		return nil, err
	}
	t.userV, err = model.Embedding(t.user)
	if err != nil {
		return nil, err
	}
	return t, nil
}

// Name implements core.Task.
func (t *Task) Name() string { return "kge" }

// Scope implements pipeline.Declaration. Only the workflow has
// variants, so only its scope names one.
func (t *Task) Scope(p core.Paradigm, workers int) string {
	s := fmt.Sprintf("products=%d,seed=%d,workers=%d", t.params.Products, t.params.Seed, workers)
	if p == core.Workflow {
		s += fmt.Sprintf(",ops=%d,scala=%t", t.params.Variant.Ops, t.params.Variant.ScalaJoin)
	}
	return s
}

// World exposes the generated product world.
func (t *Task) World() *datagen.ProductWorld { return t.world }

// Calibrated cost constants.
var (
	// workFilter is the availability check per candidate (vectorized
	// in pandas; cheap everywhere).
	workFilter = cost.Work{Interp: 0.08e-3, Mem: 0.02e-3}
	// workMerge is attaching one embedding row. The script uses
	// pandas' C merge; the workflow's Python operator pays
	// workOpOverhead on top.
	workMerge = cost.Work{Interp: 0.9e-3, Mem: 0.3e-3}
	// workDelta computes u + r - t for one candidate.
	workDelta = cost.Work{Interp: 4.4e-3, Mem: 0.7e-3}
	// workNorm reduces the delta to a distance for one candidate.
	workNorm = cost.Work{Interp: 5.6e-3, Mem: 0.8e-3}
	// workSortCmp is one comparison of the ranking sort.
	workSortCmp = cost.Work{Interp: 0.016e-3, Mem: 0.004e-3}
	// workReverse is one reverse lookup of a top-k embedding.
	workReverse = cost.Work{Interp: 14e-3, Mem: 5e-3}
	// workScan is reading one candidate row from storage.
	workScan = cost.Work{Interp: 0.35e-3, Mem: 0.1e-3}
	// workOpOverhead is the workflow's per-tuple operator cost —
	// pickling the tuple across the engine/Python bridge and UDF
	// dispatch — added to every Python operator a row passes through.
	// It is the mechanism behind the workflow paradigm's KGE deficit
	// in Figure 13c (the script's pandas merge touches rows in C).
	workOpOverhead = cost.Work{Interp: 4.2e-3, Mem: 0.7e-3}
	// workScalaOpOverhead is the same for native Scala operators.
	workScalaOpOverhead = cost.Work{Interp: 1.0e-3, Mem: 0.15e-3}
	// workTableLoadScript is loading the 375 MB embedding table with
	// pandas/numpy (C readers).
	workTableLoadScript = cost.Work{Interp: 3.2, Mem: 1.6}
	// workTableLoadUDF is building the same table inside a Python
	// operator (dict of arrays, interpreter-bound) — what the Scala
	// join replaces.
	workTableLoadUDF = cost.Work{Interp: 30, Mem: 2.5}
)

// OutputSchema is the recommendation table layout.
var OutputSchema = relation.MustSchema(
	relation.Field{Name: "rank", Type: relation.Int},
	relation.Field{Name: "asin", Type: relation.String},
	relation.Field{Name: "title", Type: relation.String},
	relation.Field{Name: "dist", Type: relation.Float},
)

// Recommendation is one ranked result.
type Recommendation struct {
	Rank  int
	ASIN  string
	Title string
	Dist  float64
}

// --- Shared stage logic -----------------------------------------------

// stage2Embedding attaches a candidate's embedding: its model row, read
// in place (kge.Model.Row), so callers must not write to it.
func (t *Task) stage2Embedding(asin string) ([]float64, error) {
	return t.model.Row(asin)
}

// stage3DeltaInto computes u + r - t into dst's storage, growing it
// only when it is too short, and returns it.
func (t *Task) stage3DeltaInto(dst, emb []float64) []float64 {
	d := slices.Grow(dst[:0], len(emb))[:len(emb)]
	for i := range emb {
		d[i] = t.userV[i] + t.relVec[i] - emb[i]
	}
	return d
}

// stage4Dist reduces a delta to its L2 norm.
func stage4Dist(delta []float64) float64 {
	var s float64
	for _, x := range delta {
		s += x * x
	}
	return math.Sqrt(s)
}

// stageDist is stage4Dist(stage3DeltaInto(nil, emb)) without the delta
// slice: the same sums in the same order, so the same bits.
func (t *Task) stageDist(emb []float64) float64 {
	var s float64
	for i := range emb {
		x := t.userV[i] + t.relVec[i] - emb[i]
		s += x * x
	}
	return math.Sqrt(s)
}

// ranked is one candidate a ranking may keep. Its embedding is the
// encoded cell it arrived with (emb), or the model row it was scored
// from (vec) in the script and in a workflow operator that joined it;
// either way nothing is decoded before the candidate makes the top K.
type ranked struct {
	asin, title, emb relation.Value
	vec              []float64
	dist             float64
}

// byDistance is the ranking's order: nearest first, ties by ASIN. ASINs
// are unique (datagen numbers them), so no two candidates tie.
func byDistance(a, b ranked) int {
	if c := cmp.Compare(a.dist, b.dist); c != 0 {
		return c
	}
	return strings.Compare(a.asin.Str(), b.asin.Str())
}

// newTop returns the ranking's selector of the TopK nearest candidates,
// with room for no more than there are products.
func (t *Task) newTop() *kge.Top[ranked] {
	return kge.NewTop(min(t.params.TopK, len(t.world.Products)), byDistance)
}

// reverseTop reverse-looks-up each of the top candidates, nearest
// first, and checks it maps back to its own product. The lookups run
// concurrently, each into its own slot.
func (t *Task) reverseTop(top []ranked) ([]Recommendation, error) {
	entities, errs := make([]string, len(top)), make([]error, len(top))
	par.Do(len(top), func(i int) { entities[i], errs[i] = t.model.ReverseLookup(top[i].vec) })
	out := make([]Recommendation, 0, len(top))
	for i, r := range top {
		entity, err := entities[i], errs[i]
		if err != nil {
			return nil, err
		}
		if entity != r.asin.Str() {
			return nil, fmt.Errorf("kge: reverse lookup of %s returned %s", r.asin.Str(), entity)
		}
		p := t.world.ProductByASIN(entity)
		if p == nil {
			return nil, fmt.Errorf("kge: unknown product %s", entity)
		}
		out = append(out, Recommendation{Rank: i + 1, ASIN: entity, Title: p.Title, Dist: r.dist})
	}
	return out, nil
}

// RecommendationsToTable converts results to the canonical table.
func RecommendationsToTable(recs []Recommendation) *relation.Table {
	tbl := relation.NewTable(OutputSchema)
	for _, r := range recs {
		tbl.AppendUnchecked(relation.Tuple{relation.IntValue(int64(r.Rank)), relation.StringValue(r.ASIN), relation.StringValue(r.Title), relation.FloatValue(r.Dist)})
	}
	return tbl
}

// candidateTable renders the candidate products as the pipeline input,
// its rows carved from one cell block.
func (t *Task) candidateTable() *relation.Table {
	tbl := relation.NewTable(schemaBase)
	width := schemaBase.Len()
	cells := make([]relation.Value, width*len(t.world.Products))
	for i, p := range t.world.Products {
		row := cells[width*i : width*(i+1) : width*(i+1)]
		row[0], row[1], row[2] = relation.StringValue(p.ASIN), relation.StringValue(p.Title), relation.BoolValue(p.InStock)
		tbl.AppendUnchecked(row)
	}
	return tbl
}
