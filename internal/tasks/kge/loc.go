package kge

// The workflow's Python UDF bodies (the operator dialogs' code) and the
// per-operator configuration, counted by the lines-of-code experiment.
// The paper measured the KGE workflow slightly *larger* than the
// notebook (134 vs 128 lines): the GUI saves little here because most
// steps are custom UDFs whose configuration is itself verbose.

const udfPipeline = `class FilterInStockOp(UDFOperator):
    def process_tuple(self, tuple_, port):
        if tuple_["instock"]:
            yield tuple_

class EmbeddingJoinOp(UDFOperator):
    def open(self):
        self.table = load_embedding_table("kge_embeddings.parquet")

    def process_tuple(self, tuple_, port):
        vec = self.table.get(tuple_["asin"])
        if vec is None:
            raise KeyError(tuple_["asin"])
        tuple_["emb"] = vec
        yield tuple_

class ComputeDeltaOp(UDFOperator):
    def open(self):
        self.user_vec = load_user_vector(USER)
        self.rel_vec = load_relation_vector(RELATION)

    def process_tuple(self, tuple_, port):
        tuple_["delta"] = self.user_vec + self.rel_vec - tuple_["emb"]
        yield tuple_

class ComputeDistanceOp(UDFOperator):
    def process_tuple(self, tuple_, port):
        delta = tuple_.pop("delta")
        tuple_["dist"] = float(np.sqrt((delta * delta).sum()))
        yield tuple_

class ReverseLookupOp(UDFOperator):
    def __init__(self):
        self.rank = 0

    def open(self):
        self.table = load_embedding_table("kge_embeddings.parquet")

    def process_tuple(self, tuple_, port):
        self.rank += 1
        entity = nearest_entity(self.table, tuple_["emb"])
        yield {"rank": self.rank, "asin": entity,
               "title": tuple_["title"], "dist": tuple_["dist"]}
`

// workflowConfig is the operator configuration for the task's variant:
// per operator, its type and two parameter lines.
func (t *Task) workflowConfig() [][]string {
	ops := [][]string{{"FileScan", `path=candidates.jsonl, format=jsonl`, `schema=[asin, title, instock]`}}
	for _, stages := range variantStages(t.params.Variant.Ops) {
		hasJoin := false
		for _, s := range stages {
			if s == stJoin {
				hasJoin = true
			}
		}
		if hasJoin && t.params.Variant.ScalaJoin {
			ops = append(ops,
				[]string{"Filter", `condition=instock == true`, `language=scala`},
				[]string{"Projection", `output=[asin, title]`, `language=scala`},
				[]string{"HashPartition", `key=asin, partitions=N`, `language=scala`},
				[]string{"BuildPrepare", `side=embeddings`, `language=scala`},
				[]string{"HashBuild", `table=kge_embeddings.parquet, key=entity`, `language=scala`},
				[]string{"HashProbe", `probe=asin, output=emb`, `language=scala`},
				[]string{"Validate", `non_null=[emb]`, `language=scala`},
				[]string{"RenameColumns", `emb=embedding_vector`, `language=scala`},
				[]string{"Materialize", `format=columnar`, `language=scala`},
			)
			continue
		}
		classes := ""
		for i, s := range stages {
			if i > 0 {
				classes += "+"
			}
			classes += stageNames[s]
		}
		ops = append(ops, []string{"PythonUDF", "class=" + classes, "workers=N"})
	}
	return append(ops, []string{"ViewResults", `name=recommendations`, `limit=10`})
}
