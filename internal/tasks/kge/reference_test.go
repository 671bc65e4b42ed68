package kge

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/dataflow"
	"repro/internal/ml/kge"
	"repro/internal/notebook"
	"repro/internal/objstore"
	"repro/internal/pipeline"
	"repro/internal/raysim"
	"repro/internal/relation"
)

// scored, refSortScored, refRankAndReverse and Oracle are the script's
// ranking as it was before it kept only its top K: every in-stock
// candidate scored into a slice, the whole slice sorted, then cut to K.
// refRankStage is the workflow rank stage's EndPort ordering of the
// same time: every candidate it saw sorted, then cut to K. Kept
// verbatim as the references kge.Top must reproduce, and the task's
// output is checked against Oracle, never against the selector.

// scored is a candidate with its distance, pre-ranking.
type scored struct {
	asin  string
	title string
	emb   []float64
	dist  float64
}

// refSortScored sorts scored candidates ascending by distance (ties by
// ASIN).
func refSortScored(rows []scored) {
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].dist != rows[j].dist {
			return rows[i].dist < rows[j].dist
		}
		return rows[i].asin < rows[j].asin
	})
}

// refRankAndReverse sorts scored candidates ascending by distance (ties
// by ASIN), keeps the top K, and reverse-looks-up each embedding.
func (t *Task) refRankAndReverse(rows []scored) ([]Recommendation, error) {
	refSortScored(rows)
	k := t.params.TopK
	if k > len(rows) {
		k = len(rows)
	}
	out := make([]Recommendation, 0, k)
	for i := 0; i < k; i++ {
		entity, err := t.model.ReverseLookup(rows[i].emb)
		if err != nil {
			return nil, err
		}
		if entity != rows[i].asin {
			return nil, fmt.Errorf("kge: reverse lookup of %s returned %s", rows[i].asin, entity)
		}
		p := t.world.ProductByASIN(entity)
		if p == nil {
			return nil, fmt.Errorf("kge: unknown product %s", entity)
		}
		out = append(out, Recommendation{Rank: i + 1, ASIN: entity, Title: p.Title, Dist: rows[i].dist})
	}
	return out, nil
}

// Oracle computes the expected recommendations directly.
func (t *Task) Oracle() ([]Recommendation, error) {
	var rows []scored
	for _, p := range t.world.Products {
		if !p.InStock {
			continue
		}
		emb, err := t.stage2Embedding(p.ASIN)
		if err != nil {
			return nil, err
		}
		rows = append(rows, scored{asin: p.ASIN, title: p.Title, emb: emb, dist: t.stageDist(emb)})
	}
	return t.refRankAndReverse(rows)
}

// refRankStage sorts every candidate the rank stage saw ascending by
// distance (ties by ASIN) and keeps the top k.
func refRankStage(rs []ranked, topK int) []ranked {
	slices.SortFunc(rs, func(a, b ranked) int {
		if c := cmp.Compare(a.dist, b.dist); c != 0 {
			return c
		}
		return strings.Compare(a.asin.Str(), b.asin.Str())
	})
	k := min(topK, len(rs))
	return rs[:k]
}

// refPipeInstance and stage3Delta are pipeInstance and the delta stage
// as they were before a workflow row stopped costing heap objects: every
// stage decodes the vectors it reads into fresh slices, computes the
// delta into a fresh slice, encodes what it hands on into a fresh
// string and boxes each row in a tuple of its own. Kept verbatim as the
// reference the current operator must reproduce.

// stage3Delta computes u + r - t.
func (t *Task) stage3Delta(emb []float64) []float64 {
	d := make([]float64, len(emb))
	for i := range emb {
		d[i] = t.userV[i] + t.relVec[i] - emb[i]
	}
	return d
}

type refPipeInstance struct {
	op     *pipeOp
	buffer []scored // only for rank stages
	rankN  int      // rows seen by rank (for sort cost)
	emit   int      // output counter for reverse-stage ranks
}

// hasStage reports whether the op runs stage s.
func (pi *refPipeInstance) hasStage(s stage) bool {
	for _, st := range pi.op.stages {
		if st == s {
			return true
		}
	}
	return false
}

func (pi *refPipeInstance) Process(ec dataflow.ExecCtx, _ int, rows []relation.Tuple) ([]relation.Tuple, error) {
	ec.AddWork(pi.op.overhead.Scale(float64(len(rows))))
	t := pi.op.task
	var out []relation.Tuple
	for _, r := range rows {
		row := r
		keep := true
		for _, s := range pi.op.stages {
			if !keep {
				break
			}
			switch s {
			case stFilter:
				ec.AddWork(workFilter)
				keep = row[2].Bool()
			case stJoin:
				if pi.op.probeOnly {
					break
				}
				ec.AddWork(workMerge)
				emb, err := t.stage2Embedding(row[0].Str())
				if err != nil {
					return nil, err
				}
				row = relation.Tuple{row[0], row[1], row[2], relation.StringValue(string(kge.AppendVec(nil, emb)))}
			case stDelta:
				ec.AddWork(workDelta)
				emb, err := kge.DecodeVecInto(nil, row[3].Str())
				if err != nil {
					return nil, err
				}
				row = relation.Tuple{row[0], row[1], row[3], relation.StringValue(string(kge.AppendVec(nil, t.stage3Delta(emb))))}
			case stNorm:
				ec.AddWork(workNorm)
				delta, err := kge.DecodeVecInto(nil, row[3].Str())
				if err != nil {
					return nil, err
				}
				row = relation.Tuple{row[0], row[1], row[2], relation.FloatValue(stage4Dist(delta))}
			case stRank:
				emb, err := kge.DecodeVecInto(nil, row[2].Str())
				if err != nil {
					return nil, err
				}
				pi.buffer = append(pi.buffer, scored{
					asin: row[0].Str(), title: row[1].Str(),
					emb: emb, dist: row[3].Float(),
				})
				pi.rankN++
				keep = false // emitted at EndPort
			case stReverse:
				ec.AddWork(workReverse)
				emb, err := kge.DecodeVecInto(nil, row[2].Str())
				if err != nil {
					return nil, err
				}
				entity, err := t.model.ReverseLookup(emb)
				if err != nil {
					return nil, err
				}
				pi.emit++
				row = relation.Tuple{relation.IntValue(int64(pi.emit)), relation.StringValue(entity), row[1], row[3]}
			}
		}
		if keep {
			out = append(out, row)
		}
	}
	return out, nil
}

func (pi *refPipeInstance) EndPort(ec dataflow.ExecCtx, _ int) ([]relation.Tuple, error) {
	if !pi.hasStage(stRank) {
		return nil, nil
	}
	n := float64(pi.rankN)
	if n > 1 {
		ec.AddWork(workSortCmp.Scale(n * math.Log2(n)))
	}
	sort.Slice(pi.buffer, func(i, j int) bool {
		if pi.buffer[i].dist != pi.buffer[j].dist {
			return pi.buffer[i].dist < pi.buffer[j].dist
		}
		return pi.buffer[i].asin < pi.buffer[j].asin
	})
	k := pi.op.task.params.TopK
	if k > len(pi.buffer) {
		k = len(pi.buffer)
	}
	var out []relation.Tuple
	for i := 0; i < k; i++ {
		s := pi.buffer[i]
		if pi.hasStage(stReverse) {
			ec.AddWork(workReverse)
			entity, err := pi.op.task.model.ReverseLookup(s.emb)
			if err != nil {
				return nil, err
			}
			out = append(out, relation.Tuple{relation.IntValue(int64(i + 1)), relation.StringValue(entity), relation.StringValue(s.title), relation.FloatValue(s.dist)})
			continue
		}
		out = append(out, relation.Tuple{relation.StringValue(s.asin), relation.StringValue(s.title), relation.StringValue(string(kge.AppendVec(nil, s.emb))), relation.FloatValue(s.dist)})
	}
	return out, nil
}

// refOp is a pipeOp whose instances are the reference's.
type refOp struct{ *pipeOp }

// NewInstance charges the embedding-table build (when this operator
// joins): every worker loads its own copy before the first tuple,
// gating the stream — the behaviour the Table I Scala swap attacks.
func (o refOp) NewInstance(ec dataflow.ExecCtx, _ []*relation.Schema) (dataflow.Instance, error) {
	if o.tableLoad != (cost.Work{}) {
		ec.AddWork(o.tableLoad)
	}
	return &refPipeInstance{op: o.pipeOp}, nil
}

// refTask is the task with its workflow run by the reference operators:
// its plan is the task's, node for node and edge for edge, with every
// pipeOp wrapped in a refOp.
type refTask struct{ *Task }

func (rt refTask) Plan(cfg core.RunConfig) (*dataflow.Workflow, error) {
	w, err := rt.Task.Plan(cfg)
	if err != nil {
		return nil, err
	}
	order, err := w.TopoIDs()
	if err != nil {
		return nil, err
	}
	ref := dataflow.New(w.Name())
	ids := map[dataflow.NodeID]dataflow.NodeID{}
	for _, id := range order {
		switch {
		case w.IsSource(id):
			ids[id] = ref.Source(w.NameOf(id), w.SourceTableAt(id), dataflow.WithScanWork(workScan))
		case w.IsSink(id):
			ids[id] = ref.Sink(w.NameOf(id))
		default:
			op, ok := w.OperatorAt(id).(*pipeOp)
			if !ok {
				return nil, fmt.Errorf("node %s is not a pipeOp", w.NameOf(id))
			}
			ids[id] = ref.Op(refOp{op}, dataflow.WithParallelism(w.ParallelismOf(id)))
		}
		for _, e := range w.InEdgesOf(id) {
			ref.Connect(ids[e.From], ids[id], e.Port, e.Part)
		}
	}
	return ref, nil
}

// workflowLayouts is every operator layout the task plans: Ops 1–6,
// and the Scala join at Ops 3–6.
func workflowLayouts() []Variant {
	var vs []Variant
	for ops := 1; ops <= 6; ops++ {
		vs = append(vs, Variant{Ops: ops})
	}
	for ops := 3; ops <= 6; ops++ {
		vs = append(vs, Variant{Ops: ops, ScalaJoin: true})
	}
	return vs
}

// TestWorkflowMatchesReference runs every layout through the current
// and the reference operators at 1 and 4 workers and wants the same
// output, the same batches, edge tuples and edge bytes, and the same
// simulated seconds: bit for bit at one worker, to 1e-9 relative at
// four, where workers fold their work in batch-arrival order.
func TestWorkflowMatchesReference(t *testing.T) {
	for _, v := range workflowLayouts() {
		for _, workers := range []int{1, 4} {
			name := fmt.Sprintf("ops=%d,scala=%t,workers=%d", v.Ops, v.ScalaJoin, workers)
			task := newTask(t, 400, v)
			cfg := core.RunConfig{Workers: workers}
			got, err := task.Run(core.Workflow, cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want, err := pipeline.Run(refTask{task}, core.Workflow, cfg)
			if err != nil {
				t.Fatalf("%s: reference: %v", name, err)
			}
			if !got.Output.Equal(want.Output) {
				t.Errorf("%s: output differs from the reference", name)
			}
			g, r := got.Trace, want.Trace
			if g.Batches != r.Batches || g.EdgeTuples != r.EdgeTuples || g.EdgeBytes != r.EdgeBytes {
				t.Errorf("%s: batches/edge tuples/edge bytes %d/%d/%d, reference %d/%d/%d",
					name, g.Batches, g.EdgeTuples, g.EdgeBytes, r.Batches, r.EdgeTuples, r.EdgeBytes)
			}
			if workers == 1 && got.SimSeconds != want.SimSeconds ||
				math.Abs(got.SimSeconds-want.SimSeconds) > 1e-9*math.Abs(want.SimSeconds) {
				t.Errorf("%s: %v simulated seconds, reference %v", name, got.SimSeconds, want.SimSeconds)
			}
		}
	}
}

// FuzzTopKMatchesSort holds the ranking, kge.Top under byDistance, to
// both references: offered every fuzzed candidate, the selector must
// keep what refRankStage keeps and what refSortScored cut to K keeps,
// for K = 0, 1, the fuzzed K, the candidate count and past it, both
// halfway through the candidates and after the last. Each two bytes are
// a candidate: an ASIN from a pool of 40, so candidates repeat, and a
// finite distance from a small set, so distances tie and ASINs break
// the ties. A candidate's title and embedding follow from its ASIN, so
// candidates equal under byDistance are equal in every field.
func FuzzTopKMatchesSort(f *testing.F) {
	f.Add([]byte{}, uint8(3))
	f.Add([]byte{7, 3}, uint8(0))
	f.Add([]byte{0, 0, 0, 0, 1, 0, 1, 0, 2, 200, 1, 0}, uint8(1))
	f.Add([]byte("the nearest ten of forty candidates, ties and repeats included"), uint8(10))
	const pool = 40
	var asins, titles, embs [pool]relation.Value
	var vecs [pool][]float64
	for j := range pool {
		asins[j] = relation.StringValue(fmt.Sprintf("B%09d", j))
		titles[j] = relation.StringValue(fmt.Sprintf("title %d", j))
		embs[j] = relation.StringValue(string(kge.AppendVec(nil, []float64{float64(j)})))
		vecs[j] = []float64{float64(j)}
	}
	same := func(a, b ranked) bool {
		return a.asin.Equal(b.asin) && a.title.Equal(b.title) && a.emb.Equal(b.emb) &&
			slices.Equal(a.vec, b.vec) && math.Float64bits(a.dist) == math.Float64bits(b.dist)
	}
	f.Fuzz(func(t *testing.T, data []byte, fk uint8) {
		items := make([]ranked, len(data)/2)
		for i := range items {
			j, d := int(data[2*i])%pool, data[2*i+1]
			dist := float64(d%16) / 8
			if d >= 128 {
				dist = math.Sqrt(float64(d))
			}
			items[i] = ranked{asin: asins[j], title: titles[j], emb: embs[j], vec: vecs[j], dist: dist}
		}
		for _, k := range []int{0, 1, int(fk), len(items), len(items) + 3} {
			top := kge.NewTop(k, byDistance)
			check := func(offered []ranked) {
				got := top.Sorted()
				if top.Seen() != len(offered) {
					t.Fatalf("k=%d: Seen %d after %d offers", k, top.Seen(), len(offered))
				}
				want := refRankStage(slices.Clone(offered), k)
				if len(got) != len(want) {
					t.Fatalf("k=%d, %d offered: kept %d, rank stage reference %d", k, len(offered), len(got), len(want))
				}
				for i := range want {
					if !same(got[i], want[i]) {
						t.Fatalf("k=%d, %d offered: item %d is %s at %v, rank stage reference %s at %v",
							k, len(offered), i, got[i].asin.Str(), got[i].dist, want[i].asin.Str(), want[i].dist)
					}
				}
				rows := make([]scored, len(offered))
				for i, r := range offered {
					rows[i] = scored{asin: r.asin.Str(), title: r.title.Str(), emb: r.vec, dist: r.dist}
				}
				refSortScored(rows)
				for i, r := range rows[:min(k, len(rows))] {
					if got[i].asin.Str() != r.asin || got[i].title.Str() != r.title ||
						math.Float64bits(got[i].dist) != math.Float64bits(r.dist) {
						t.Fatalf("k=%d, %d offered: item %d is %s at %v, script reference %s at %v",
							k, len(offered), i, got[i].asin.Str(), got[i].dist, r.asin, r.dist)
					}
				}
			}
			half := len(items) / 2
			for _, r := range items[:half] {
				top.Offer(r)
			}
			check(items[:half])
			for _, r := range items[half:] {
				top.Offer(r)
			}
			check(items)
		}
	})
}

// refReverseTop is reverseTop as it was before its lookups ran
// concurrently: one candidate after another, stopping at the first
// error. Kept verbatim as the reference reverseTop must reproduce.
func (t *Task) refReverseTop(top []ranked) ([]Recommendation, error) {
	out := make([]Recommendation, 0, len(top))
	for i, r := range top {
		entity, err := t.model.ReverseLookup(r.vec)
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

// serialTask is the task with its notebook's reverse_lookup cell run by
// refReverseTop. The score_chunks and rank cells are the task's, copied
// so that the ranking they share reaches the replaced cell.
type serialTask struct{ *Task }

func (st serialTask) Notebook(env *pipeline.Env) pipeline.NotebookDecl {
	const tableID = objstore.ID("kge-embeddings")
	decl := st.Task.Notebook(env)
	var top *kge.Top[ranked]
	var recs []Recommendation
	for _, c := range decl.Cells {
		switch c.Name {
		case "score_chunks":
			c.Run = func(k *notebook.Kernel) error {
				return k.Call("score_chunk", func() error {
					inStock := make([]int, 0, len(st.world.Products))
					for i, p := range st.world.Products {
						if p.InStock {
							inStock = append(inStock, i)
						}
					}
					nChunks := min(env.Workers*4, len(inStock))
					if nChunks == 0 {
						return fmt.Errorf("kge: no in-stock candidates")
					}
					job := make([]raysim.TaskSpec, 0, nChunks)
					top = st.newTop()
					for ci := 0; ci < nChunks; ci++ {
						n := 0
						for idx := ci; idx < len(inStock); idx += nChunks {
							p := st.world.Products[inStock[idx]]
							emb, err := st.stage2Embedding(p.ASIN)
							if err != nil {
								return err
							}
							top.Offer(ranked{asin: relation.StringValue(p.ASIN), vec: emb, dist: st.stageDist(emb)})
							n++
						}
						work := workMerge.Add(workDelta).Add(workNorm).Scale(float64(n))
						job = append(job, raysim.TaskSpec{Name: fmt.Sprintf("score-%d", ci), Work: work, Gets: []objstore.ID{tableID}})
					}
					return env.RunJob(k, job)
				})
			}
		case "rank":
			c.Run = func(k *notebook.Kernel) error {
				if n := float64(top.Seen()); n > 1 {
					k.Charge(workSortCmp.Scale(n * math.Log2(n)))
				}
				return nil
			}
		case "reverse_lookup":
			c.Run = func(k *notebook.Kernel) error {
				var err error
				if recs, err = st.refReverseTop(top.Sorted()); err != nil {
					return err
				}
				k.Charge(workReverse.Scale(float64(len(recs))))
				return nil
			}
		}
	}
	decl.Output = func() (*relation.Table, map[string]float64, error) {
		return RecommendationsToTable(recs), st.quality(recs), nil
	}
	return decl
}

// TestScriptMatchesSerial holds reverseTop to refReverseTop on the
// ranking of every in-stock candidate, the nearest K and one, with two
// candidates' vectors swapped so that two lookups fail (the nearer one's
// error is wanted), and at workers 1, 4 and 32 the whole script run's
// output digest, quality and simulated seconds against the run of
// serialTask.
func TestScriptMatchesSerial(t *testing.T) {
	for _, products := range []int{40, 1200} {
		task := newTask(t, products, Variant{})
		all := kge.NewTop(products, byDistance)
		for _, p := range task.world.Products {
			if p.InStock {
				emb, err := task.stage2Embedding(p.ASIN)
				if err != nil {
					t.Fatal(err)
				}
				all.Offer(ranked{asin: relation.StringValue(p.ASIN), vec: emb, dist: task.stageDist(emb)})
			}
		}
		ranking := all.Sorted()
		swapped := slices.Clone(ranking)
		swapped[3].vec, swapped[7].vec = swapped[7].vec, swapped[3].vec
		for _, top := range [][]ranked{ranking, ranking[:task.params.TopK], ranking[:1], swapped} {
			got, err := task.reverseTop(top)
			want, wantErr := task.refReverseTop(top)
			if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
				t.Fatalf("%d products, %d ranked: error %v, reference %v", products, len(top), err, wantErr)
			}
			if &top[0] == &swapped[0] && wantErr == nil {
				t.Fatalf("%d products: swapped vectors looked up without an error", products)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%d products, %d ranked: recommendations differ from the reference", products, len(top))
			}
		}
		for _, workers := range []int{1, 4, 32} {
			cfg := core.RunConfig{Workers: workers}
			got, err := pipeline.Run(task, core.Script, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := pipeline.Run(serialTask{task}, core.Script, cfg)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%d products, workers %d", products, workers)
			if relation.Digest(got.Output) != relation.Digest(want.Output) {
				t.Fatalf("%s: output digest differs from the serial run's", name)
			}
			for m, v := range want.Quality {
				if math.Float64bits(got.Quality[m]) != math.Float64bits(v) {
					t.Fatalf("%s: %s %v, serial %v", name, m, got.Quality[m], v)
				}
			}
			if math.Float64bits(got.SimSeconds) != math.Float64bits(want.SimSeconds) {
				t.Fatalf("%s: %v simulated seconds, serial %v", name, got.SimSeconds, want.SimSeconds)
			}
		}
	}
}
