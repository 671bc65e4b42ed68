package gotta

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/dataflow"
	"repro/internal/ml/genqa"
	"repro/internal/pipeline"
	"repro/internal/relation"
)

// The workflow's Python UDFs.

const udfPrompts = `class BuildPromptsOp(UDFOperator):
    def process_tuple(self, tuple_, port):
        for idx, qa in enumerate(load_qas(tuple_["text"])):
            yield {"passage": tuple_["id"], "qa": idx,
                   "cloze": qa["cloze"], "answer": qa["answer"],
                   "prompt": f"Question: {qa['cloze']} Context: {tuple_['text']}"}
`

const udfInference = `class BartGenerateOp(UDFOperator):
    def open(self):
        self.tokenizer = BartTokenizer.from_pretrained("gotta-bart-large")
        self.model = BartForConditionalGeneration.from_pretrained(
            "gotta-bart-large")
        self.model.eval()

    def process_tuple(self, tuple_, port):
        ids = self.tokenizer(tuple_["prompt"], return_tensors="pt")
        with torch.no_grad():
            gen = self.model.generate(**ids, max_new_tokens=16)
        tuple_["generated"] = self.tokenizer.decode(
            gen[0], skip_special_tokens=True)
        yield tuple_
`

const udfEvaluate = `class EvaluateOp(UDFOperator):
    def process_tuple(self, tuple_, port):
        tuple_["em"] = exact_match(tuple_["generated"], tuple_["answer"])
        yield tuple_
`

var promptSchema = relation.MustSchema(
	relation.Field{Name: "passage", Type: relation.String},
	relation.Field{Name: "qa", Type: relation.Int},
	relation.Field{Name: "cloze", Type: relation.String},
	relation.Field{Name: "answer", Type: relation.String},
	relation.Field{Name: "context", Type: relation.String},
)

var generatedSchema = relation.MustSchema(
	relation.Field{Name: "passage", Type: relation.String},
	relation.Field{Name: "qa", Type: relation.Int},
	relation.Field{Name: "cloze", Type: relation.String},
	relation.Field{Name: "answer", Type: relation.String},
	relation.Field{Name: "generated", Type: relation.String},
)

// passageTable renders the passages as the workflow source.
func (t *Task) passageTable() *relation.Table {
	s := relation.MustSchema(
		relation.Field{Name: "id", Type: relation.String},
		relation.Field{Name: "text", Type: relation.String},
	)
	tbl := relation.NewTable(s)
	for _, p := range t.passages {
		tbl.AppendUnchecked(relation.Tuple{relation.StringValue(p.ID), relation.StringValue(p.Text)})
	}
	return tbl
}

// generateOp is the BART inference operator: each worker initializes
// its own model copy (shipped over the network) on first use, then
// streams tuples through the forward pass with the torch parallelism
// Texera permits.
type generateOp struct {
	task       *Task
	perQA      cost.Work // forward cost per cloze after torch speedup
	workerInit cost.Work // one-time per-worker model setup
}

func (o *generateOp) Desc() dataflow.Desc {
	return dataflow.Desc{
		Name:          "bart-generate",
		Language:      cost.Python,
		Ports:         1,
		BlockingPorts: []bool{false},
		// Each batch is a pure forward pass; the model NewInstance loads
		// is read-only, so instances carry no cross-batch state.
		Stateless: true,
	}
}

func (o *generateOp) OutputSchema(in []*relation.Schema) (*relation.Schema, error) {
	if len(in) != 1 || !in[0].Equal(promptSchema) {
		return nil, fmt.Errorf("gotta: bart-generate: unexpected input schema")
	}
	return generatedSchema, nil
}

// NewInstance charges the per-worker model setup: the checkpoint
// arrives over the network and is initialized before the first tuple.
func (o *generateOp) NewInstance(ec dataflow.ExecCtx, _ []*relation.Schema) (dataflow.Instance, error) {
	ec.AddWork(o.workerInit)
	return &generateInstance{op: o}, nil
}

type generateInstance struct{ op *generateOp }

func (gi *generateInstance) Process(ec dataflow.ExecCtx, _ int, rows []relation.Tuple) ([]relation.Tuple, error) {
	ec.AddWork(gi.op.perQA.Scale(float64(len(rows))))
	// Each row is the prompt's first four cells plus the prediction,
	// carved from the worker's arena as dataflow's project does.
	width, out := generatedSchema.Len(), ec.Out()
	out.Reserve(len(rows), len(rows)*width)
	for _, r := range rows {
		pred, _ := gi.op.task.generate(r[4].Str(), r[2].Str(), r[3].Str())
		row := out.Row(width)
		copy(row, r[:width-1])
		row[width-1] = relation.StringValue(pred)
	}
	return out.Batch(), nil
}

func (gi *generateInstance) EndPort(dataflow.ExecCtx, int) ([]relation.Tuple, error) {
	return nil, nil
}

// Plan assembles the GOTTA dataflow graph: serial prompt construction
// feeding parallel BART inference and evaluation, with prompts streamed
// to the generator in engine-tuned batches. The cost model sets only
// simulated work (torch speedup, model-transfer time), not the plan's
// shape.
func (t *Task) Plan(cfg core.RunConfig) (*dataflow.Workflow, error) {
	model, workers := cfg.Model, cfg.Workers
	w := dataflow.New("gotta")
	lang := cost.Python
	src := w.Source("passages", t.passageTable(), dataflow.WithScanWork(cost.Work{Interp: 0.08}))

	prompts := dataflow.NewMap("build-prompts", lang, promptSchema, func(r relation.Tuple, out *dataflow.Rows) error {
		out.Charge(workPrompt.Scale(float64(t.params.SentencesPer)))
		id := r[0].Str()
		for _, pass := range t.passages {
			if pass.ID != id {
				continue
			}
			out.Grow(len(pass.QAs))
			for qi, qa := range pass.QAs {
				out.Emit(r[0], relation.IntValue(int64(qi)), relation.StringValue(qa.Cloze), relation.StringValue(qa.Answer), relation.StringValue(qa.Context))
			}
			return nil
		}
		return fmt.Errorf("gotta: unknown passage %q", id)
	})
	prompts.Work = cost.Work{}
	promptsID := w.Op(prompts, t.Signature("prompts")) // prompt building is a serial stage
	w.Connect(src, promptsID, 0, dataflow.RoundRobin())

	speedup := cost.TorchSpeedup(model.TorchCoresTexera)
	infer := &generateOp{
		task:       t,
		perQA:      cost.Work{Mem: forwardSecondsPerQA / speedup},
		workerInit: workWorkerInit.Add(cost.Work{Mem: model.TransferSeconds(t.model.ModelBytes)}),
	}
	inferID := w.Op(infer, dataflow.WithParallelism(workers))
	w.Connect(promptsID, inferID, 0, dataflow.RoundRobin())

	eval := dataflow.NewMap("evaluate", lang, OutputSchema, func(r relation.Tuple, out *dataflow.Rows) error {
		out.Emit(r[0], r[1], r[2], r[3], r[4], relation.BoolValue(genqa.ExactMatch(r[4].Str(), r[3].Str())))
		return nil
	})
	eval.Work = workEval
	evalID := w.Op(eval, dataflow.WithParallelism(workers), t.Signature("evaluate"))
	w.Connect(inferID, evalID, 0, dataflow.RoundRobin())

	sink := w.Sink("answers")
	w.Connect(evalID, sink, 0, dataflow.RoundRobin())
	return w, nil
}

// Workflow implements pipeline.Declaration.
func (t *Task) Workflow() pipeline.WorkflowDecl {
	return pipeline.WorkflowDecl{
		Sink:   "answers",
		UDFs:   []string{udfPrompts, udfInference, udfEvaluate},
		Config: workflowConfig,
		Shape: func(sink *relation.Table) (*relation.Table, map[string]float64, error) {
			answers := make([]Answer, 0, sink.Len())
			for _, r := range sink.Rows() {
				answers = append(answers, Answer{
					Passage: r[0].Str(), QA: int(r[1].Int()), Cloze: r[2].Str(),
					Gold: r[3].Str(), Generated: r[4].Str(), EM: r[5].Bool(),
				})
			}
			return AnswersToTable(answers), quality(answers), nil
		},
	}
}

// workflowConfig is the operator configuration: per operator, its type
// and its parameter line.
var workflowConfig = [][]string{
	{"FileScan", `path=passages.jsonl, format=jsonl`},
	{"PythonUDF", `class=BuildPromptsOp`},
	{"PythonUDF", `class=BartGenerateOp, workers=N, model=gotta-bart-large`},
	{"PythonUDF", `class=EvaluateOp`},
	{"ViewResults", `name=answers`},
}
