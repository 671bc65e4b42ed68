package wef

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/dataflow"
	"repro/internal/datagen"
	"repro/internal/ml/linear"
	"repro/internal/ml/textclf"
	"repro/internal/pipeline"
	"repro/internal/relation"
)

// The workflow's single Python UDF: a fine-tune-and-predict operator
// instantiated once per framing. The rest of the workflow is operator
// configuration.

const udfTrain = `class FinetuneFramingOp(UDFOperator):
    def __init__(self, framing):
        self.framing = framing
        self.rows = []

    def process_tuple(self, tuple_, port):
        self.rows.append(tuple_)

    def on_finish(self, port):
        model = BertForSequenceClassification.from_pretrained(
            "bert-base-uncased", num_labels=1)
        train = self.rows[: int(len(self.rows) * 0.8)]
        model = finetune(model, [r["text"] for r in train],
                         [r["g_" + self.framing] for r in train],
                         epochs=EPOCHS)
        for r in self.rows:
            r["p_" + self.framing] = predict(model, r["text"]) > 0
            yield r
`

// trainOp is the blocking fine-tune-and-predict operator for one
// framing.
type trainOp struct {
	desc    dataflow.Desc
	task    *Task
	framing int
	in      *relation.Schema
	out     *relation.Schema
}

func newTrainOp(t *Task, framing int, in *relation.Schema) (*trainOp, error) {
	out, err := in.Concat(relation.MustSchema(
		relation.Field{Name: "p_" + datagen.FramingNames[framing], Type: relation.Bool},
	), "dup_")
	if err != nil {
		return nil, err
	}
	return &trainOp{
		desc: dataflow.Desc{
			Name:          "finetune-" + datagen.FramingNames[framing],
			Language:      cost.Python,
			Ports:         1,
			BlockingPorts: []bool{true},
		},
		task:    t,
		framing: framing,
		in:      in,
		out:     out,
	}, nil
}

func (o *trainOp) Desc() dataflow.Desc { return o.desc }

func (o *trainOp) OutputSchema(in []*relation.Schema) (*relation.Schema, error) {
	if len(in) != 1 || !in[0].Equal(o.in) {
		return nil, fmt.Errorf("wef: %s: unexpected input schema", o.desc.Name)
	}
	return o.out, nil
}

func (o *trainOp) NewInstance(dataflow.ExecCtx, []*relation.Schema) (dataflow.Instance, error) {
	return &trainInstance{op: o}, nil
}

type trainInstance struct {
	op   *trainOp
	rows []relation.Tuple
}

func (ti *trainInstance) Process(ec dataflow.ExecCtx, _ int, rows []relation.Tuple) ([]relation.Tuple, error) {
	// Buffering/auto-batching cost is negligible; the engine batches
	// for us (no manual DataLoader, unlike the script).
	ec.AddWork(cost.Work{Interp: 0.2e-3}.Scale(float64(len(rows))))
	ti.rows = append(ti.rows, rows...)
	return nil, nil
}

func (ti *trainInstance) EndPort(ec dataflow.ExecCtx, _ int) ([]relation.Tuple, error) {
	t := ti.op.task
	model, err := textclf.Pretrained("bert-"+datagen.FramingNames[ti.op.framing], hashDim, embDim, hidden)
	if err != nil {
		return nil, err
	}
	cut := len(ti.rows) * 4 / 5
	if cut == 0 {
		cut = len(ti.rows)
	}
	texts := make([]string, cut)
	labels := make([]bool, cut)
	for i := 0; i < cut; i++ {
		texts[i] = ti.rows[i][1].Str()
		labels[i] = ti.rows[i][2+ti.op.framing].Bool()
	}
	seed := t.params.Seed*31 + uint64(ti.op.framing)
	if err := model.Finetune(texts, labels, textclf.Config{Epochs: t.params.Epochs, LR: finetuneLR, Seed: seed}); err != nil {
		return nil, err
	}
	ec.AddWork(workTrainPerExample.Scale(float64(cut * t.params.Epochs)))
	ec.AddWork(workPredict.Scale(float64(len(ti.rows))))
	// One block for the call's cells: each row is its input plus the
	// prediction, carved as dataflow's project does.
	width := ti.op.out.Len()
	block := make([]relation.Value, len(ti.rows)*width)
	out := make([]relation.Tuple, len(ti.rows))
	for i, r := range ti.rows {
		row := block[i*width : (i+1)*width : (i+1)*width]
		copy(row, r)
		row[width-1] = relation.BoolValue(model.Predict(r[1].Str()))
		out[i] = row
	}
	return out, nil
}

// tweetTable renders the labeled tweets as the workflow source.
func (t *Task) tweetTable() *relation.Table {
	s := relation.MustSchema(
		relation.Field{Name: "id", Type: relation.Int},
		relation.Field{Name: "text", Type: relation.String},
		relation.Field{Name: "g_link", Type: relation.Bool},
		relation.Field{Name: "g_action", Type: relation.Bool},
		relation.Field{Name: "g_attribution", Type: relation.Bool},
		relation.Field{Name: "g_irrelevant", Type: relation.Bool},
	)
	tbl := relation.NewTable(s)
	for _, tw := range t.tweets {
		tbl.AppendUnchecked(relation.Tuple{
			relation.IntValue(tw.ID), relation.StringValue(tw.Text),
			relation.BoolValue(tw.Framings[0]), relation.BoolValue(tw.Framings[1]),
			relation.BoolValue(tw.Framings[2]), relation.BoolValue(tw.Framings[3]),
		})
	}
	return tbl
}

// Plan assembles the WEF chain of four blocking fine-tune operators —
// sequential, like the paper's measured configuration, so the config's
// worker count is not read.
func (t *Task) Plan(core.RunConfig) (*dataflow.Workflow, error) {
	w := dataflow.New("wef")
	src := w.Source("tweets", t.tweetTable(), dataflow.WithScanWork(workLoad))
	prev := src
	schema := t.tweetTable().Schema()
	for f := 0; f < datagen.NumFramings; f++ {
		op, err := newTrainOp(t, f, schema)
		if err != nil {
			return nil, err
		}
		id := w.Op(op, t.Signature("train"))
		w.Connect(prev, id, 0, dataflow.RoundRobin())
		prev = id
		schema = op.out
	}
	shape := dataflow.NewMap("shape-predictions", cost.Python, OutputSchema, func(r relation.Tuple, out *dataflow.Rows) error {
		out.Emit(r[0], r[6], r[7], r[8], r[9])
		return nil
	})
	shape.Work = cost.Work{Interp: 0.5e-3}
	shapeID := w.Op(shape, t.Signature("shape"))
	w.Connect(prev, shapeID, 0, dataflow.RoundRobin())
	sink := w.Sink("predictions")
	w.Connect(shapeID, sink, 0, dataflow.RoundRobin())
	return w, nil
}

// Workflow implements pipeline.Declaration. The sink table is already
// the canonical output; quality is macro-F1 on the eval split,
// mirroring the script path.
func (t *Task) Workflow() pipeline.WorkflowDecl {
	return pipeline.WorkflowDecl{
		Sink:   "predictions",
		UDFs:   []string{udfTrain},
		Config: workflowConfig,
		Serial: true,
		Shape: func(out *relation.Table) (*relation.Table, map[string]float64, error) {
			_, evalIdx := t.split()
			evalSet := make(map[int64]bool, len(evalIdx))
			for _, ei := range evalIdx {
				evalSet[t.tweets[ei].ID] = true
			}
			var pred, gold [][]bool
			byID := make(map[int64]datagen.Tweet, len(t.tweets))
			for _, tw := range t.tweets {
				byID[tw.ID] = tw
			}
			for _, r := range out.Rows() {
				if !evalSet[r[0].Int()] {
					continue
				}
				pred = append(pred, []bool{r[1].Bool(), r[2].Bool(), r[3].Bool(), r[4].Bool()})
				tw := byID[r[0].Int()]
				gold = append(gold, append([]bool(nil), tw.Framings[:]...))
			}
			quality := map[string]float64{}
			if len(pred) > 0 {
				f1, err := linear.MacroF1(pred, gold)
				if err != nil {
					return nil, nil, err
				}
				quality["macro_f1"] = f1
			}
			return out, quality, nil
		},
	}
}

// workflowConfig is the operator configuration: per operator, its type
// and its parameter line.
var workflowConfig = [][]string{
	{"FileScan", `path=wildfire_tweets.jsonl, format=jsonl`},
	{"PythonUDF", `class=FinetuneFramingOp, framing=link, epochs=3`},
	{"PythonUDF", `class=FinetuneFramingOp, framing=action, epochs=3`},
	{"PythonUDF", `class=FinetuneFramingOp, framing=attribution, epochs=3`},
	{"PythonUDF", `class=FinetuneFramingOp, framing=irrelevant, epochs=3`},
	{"Projection", `output=[id, p_link, p_action, p_attribution, p_irrelevant]`},
	{"ViewResults", `name=predictions`},
}
