package kge

import (
	"fmt"
	"math"

	"repro/internal/cost"
	"repro/internal/ml/kge"
	"repro/internal/notebook"
	"repro/internal/objstore"
	"repro/internal/pipeline"
	"repro/internal/raysim"
	"repro/internal/relation"
)

// Notebook cell sources (pseudo-Python).

const srcImports = `import ray
import numpy as np
import pandas as pd

ray.init(address="auto")
USER, RELATION, TOP_K = "user-000", "buys", 10
`

const srcLoadModel = `emb = pd.read_parquet("kge_embeddings.parquet")  # 375 MB table
user_vec = emb.loc[USER].values
rel_vec = pd.read_parquet("kge_relations.parquet").loc[RELATION].values
emb_ref = ray.put(emb)
`

const srcFilterCandidates = `candidates = pd.read_json("candidates.jsonl", lines=True)
candidates = candidates[candidates.instock]
print(f"{len(candidates)} candidates in stock")
`

const srcScore = `@ray.remote
def score_chunk(emb_ref, chunk):
    emb = ray.get(emb_ref)
    merged = chunk.merge(emb, left_on="asin", right_index=True)
    out = []
    for row in merged.itertuples():
        delta = user_vec + rel_vec - np.asarray(row.embedding)
        dist = float(np.sqrt((delta * delta).sum()))
        out.append((row.asin, row.title, row.embedding, dist))
    return out

chunks = np.array_split(candidates, NUM_CHUNKS)
futures = [score_chunk.remote(emb_ref, c) for c in chunks]
scored = [r for chunk in ray.get(futures) for r in chunk]
`

const srcRank = `scored.sort(key=lambda r: (r[3], r[0]))
top = scored[:TOP_K]
`

const srcReverse = `results = []
for rank, (asin, title, embedding, dist) in enumerate(top, start=1):
    entity = reverse_lookup(emb, embedding)  # nearest-neighbour scan
    assert entity == asin
    results.append({"rank": rank, "asin": entity,
                    "title": title, "dist": dist})
pd.DataFrame(results).to_json("recommendations.jsonl",
                              orient="records", lines=True)
`

// Notebook implements pipeline.Declaration: KGE as a Ray-scaled
// notebook — the embedding table is put into the object store,
// candidate chunks are filtered, merged (pandas, C speed) and scored in
// parallel tasks, and the driver ranks and reverse-looks-up the
// winners.
func (t *Task) Notebook(env *pipeline.Env) pipeline.NotebookDecl {
	const tableID = objstore.ID("kge-embeddings")
	var top *kge.Top[ranked]
	var recs []Recommendation
	cells := []*notebook.Cell{
		{Name: "imports", Source: srcImports, Run: func(k *notebook.Kernel) error {
			k.Charge(cost.Work{Interp: 1.0, Mem: 0.3})
			return nil
		}},
		{Name: "load_model", Source: srcLoadModel, Run: func(k *notebook.Kernel) error {
			k.Charge(workTableLoadScript)
			secs, err := env.Put(tableID, t.model.SizeBytes())
			if err != nil {
				return err
			}
			k.ChargeSeconds(secs)
			return nil
		}},
		{Name: "filter_candidates", Source: srcFilterCandidates, Run: func(k *notebook.Kernel) error {
			k.Charge(workScan.Scale(float64(len(t.world.Products))))
			k.Charge(workFilter.Scale(float64(len(t.world.Products))))
			return nil
		}},
		{Name: "score_chunks", Source: srcScore, Run: func(k *notebook.Kernel) error {
			return k.Call("score_chunk", func() error {
				inStock := make([]int, 0, len(t.world.Products))
				for i, p := range t.world.Products {
					if p.InStock {
						inStock = append(inStock, i)
					}
				}
				nChunks := env.Workers * 4
				if nChunks > len(inStock) {
					nChunks = len(inStock)
				}
				if nChunks == 0 {
					return fmt.Errorf("kge: no in-stock candidates")
				}
				job := make([]raysim.TaskSpec, 0, nChunks)
				top = t.newTop()
				for ci := 0; ci < nChunks; ci++ {
					n := 0
					for idx := ci; idx < len(inStock); idx += nChunks {
						p := t.world.Products[inStock[idx]]
						emb, err := t.stage2Embedding(p.ASIN)
						if err != nil {
							return err
						}
						top.Offer(ranked{asin: relation.StringValue(p.ASIN), vec: emb, dist: t.stageDist(emb)})
						n++
					}
					work := workMerge.Add(workDelta).Add(workNorm).Scale(float64(n))
					job = append(job, raysim.TaskSpec{
						Name: fmt.Sprintf("score-%d", ci),
						Work: work,
						Gets: []objstore.ID{tableID},
					})
				}
				return env.RunJob(k, job)
			})
		}},
		{Name: "rank", Source: srcRank, Run: func(k *notebook.Kernel) error {
			// The simulated sort still ranks every candidate scored.
			n := float64(top.Seen())
			if n > 1 {
				k.Charge(workSortCmp.Scale(n * math.Log2(n)))
			}
			return nil
		}},
		{Name: "reverse_lookup", Source: srcReverse, Run: func(k *notebook.Kernel) error {
			var err error
			recs, err = t.reverseTop(top.Sorted())
			if err != nil {
				return err
			}
			k.Charge(workReverse.Scale(float64(len(recs))))
			return nil
		}},
	}
	return pipeline.NotebookDecl{
		Cells: cells,
		Revs: map[string][]string{
			"filter_candidates": {"filter-instock"},
			"score_chunks":      {"embedding-join", "compute-delta", "compute-distance"},
			"rank":              {"rank-topk"},
			"reverse_lookup":    {"reverse-lookup"},
		},
		Output: func() (*relation.Table, map[string]float64, error) {
			return RecommendationsToTable(recs), t.quality(recs), nil
		},
	}
}

// quality computes the in-category hit rate of the recommendations —
// the fraction of top-k products in the target user's preferred
// category.
func (t *Task) quality(recs []Recommendation) map[string]float64 {
	if len(recs) == 0 {
		return map[string]float64{}
	}
	cat := t.world.UserCategory[t.user]
	hits := 0
	for _, r := range recs {
		if p := t.world.ProductByASIN(r.ASIN); p != nil && p.Category == cat {
			hits++
		}
	}
	return map[string]float64{"hit_rate": float64(hits) / float64(len(recs))}
}
