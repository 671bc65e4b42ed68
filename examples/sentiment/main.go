// Sentiment: the paper's introductory example (Figures 1 and 2) — a
// sentiment/relevance classifier over wildfire tweets, built as the
// classic CountVectorizer -> TfidfTransformer -> SGDClassifier
// pipeline, trained and evaluated under the workflow paradigm with a
// live progress display, exactly the flow the Texera screenshot shows.
//
// Run with: go run ./examples/sentiment
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/cost"
	"repro/internal/dataflow"
	"repro/internal/datagen"
	"repro/internal/ml/feature"
	"repro/internal/ml/linear"
	"repro/internal/relation"
)

// trainOp is a blocking operator that fits the classifier on its
// buffered input and emits per-tweet predictions — the "train model"
// box of the paper's Figure 2 workflow.
type trainOp struct {
	out *relation.Schema
}

func (o *trainOp) Desc() dataflow.Desc {
	return dataflow.Desc{
		Name: "sentiment-train", Language: cost.Python,
		Ports: 1, BlockingPorts: []bool{true},
	}
}

func (o *trainOp) OutputSchema(in []*relation.Schema) (*relation.Schema, error) {
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
	ti.rows = append(ti.rows, rows...)
	return nil, nil
}

func (ti *trainInstance) EndPort(ec dataflow.ExecCtx, _ int) ([]relation.Tuple, error) {
	texts := make([]string, len(ti.rows))
	gold := make([]bool, len(ti.rows))
	for i, r := range ti.rows {
		texts[i] = r[1].Str()
		gold[i] = r[2].Bool()
	}
	hv, err := feature.NewHashingVectorizer(1 << 14)
	if err != nil {
		return nil, err
	}
	counts := hv.TransformAll(texts)
	tfidf := feature.FitTFIDF(counts)
	x := tfidf.TransformAll(counts)
	clf := &linear.SGDClassifier{Epochs: 5, Seed: 11}
	if err := clf.Fit(x, gold); err != nil {
		return nil, err
	}
	ec.AddWork(cost.Work{Interp: 0.02}.Scale(float64(len(texts))))
	out := make([]relation.Tuple, len(ti.rows))
	for i, r := range ti.rows {
		out[i] = relation.Tuple{r[0], r[1], relation.BoolValue(gold[i]), relation.BoolValue(clf.Predict(x[i]))}
	}
	return out, nil
}

func main() {
	tweets := datagen.GenerateTweets(600, 13)
	schema := relation.MustSchema(
		relation.Field{Name: "id", Type: relation.Int},
		relation.Field{Name: "text", Type: relation.String},
		relation.Field{Name: "relevant", Type: relation.Bool},
	)
	src := relation.NewTable(schema)
	for _, t := range tweets {
		src.AppendUnchecked(relation.Tuple{relation.IntValue(t.ID), relation.StringValue(t.Text), relation.BoolValue(!t.Framings[datagen.FramingIrrelevant])})
	}

	outSchema := relation.MustSchema(
		relation.Field{Name: "id", Type: relation.Int},
		relation.Field{Name: "text", Type: relation.String},
		relation.Field{Name: "gold", Type: relation.Bool},
		relation.Field{Name: "pred", Type: relation.Bool},
	)

	w := dataflow.New("sentiment")
	s := w.Source("tweets", src)
	train := w.Op(&trainOp{out: outSchema})
	correct := w.Op(dataflow.NewFilter("correct-predictions", cost.Python, func(r relation.Tuple) bool {
		return r[2].Bool() == r[3].Bool()
	}))
	sinkAll := w.Sink("predictions")
	sinkOK := w.Sink("correct")
	w.Connect(s, train, 0, dataflow.RoundRobin())
	w.Connect(train, correct, 0, dataflow.RoundRobin())
	w.Connect(train, sinkAll, 0, dataflow.RoundRobin())
	w.Connect(correct, sinkOK, 0, dataflow.RoundRobin())

	res, err := w.Run(context.Background(), dataflow.Config{})
	if err != nil {
		log.Fatal(err)
	}

	all := res.Tables["predictions"]
	ok := res.Tables["correct"]
	fmt.Printf("tweets: %d, correct predictions: %d (accuracy %.3f)\n",
		all.Len(), ok.Len(), float64(ok.Len())/float64(all.Len()))
	fmt.Println("\nper-operator data progress (paper Figure 9):")
	for _, n := range res.Trace.Nodes {
		fmt.Printf("  %-22s in=%-6d out=%-6d\n", n.Name, n.InTuples, n.OutTuples)
	}
	fmt.Printf("\nsimulated execution time: %.3f s\n", res.SimSeconds)
}
