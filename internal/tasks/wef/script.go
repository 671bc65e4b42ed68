package wef

import (
	"repro/internal/cost"
	"repro/internal/ml/textclf"
	"repro/internal/notebook"
	"repro/internal/pipeline"
	"repro/internal/relation"
)

// Notebook cell sources (pseudo-Python): the Jupyter implementation of
// WEF, as counted by the lines-of-code experiment.

const srcImports = `import torch
import pandas as pd
from transformers import BertForSequenceClassification, BertTokenizer
from torch.utils.data import DataLoader, TensorDataset

FRAMINGS = ["link", "action", "attribution", "irrelevant"]
EPOCHS = 3
`

const srcLoad = `df = pd.read_json("wildfire_tweets.jsonl", lines=True)
tokenizer = BertTokenizer.from_pretrained("bert-base-uncased")
train_df = df.iloc[: int(len(df) * 0.8)]
eval_df = df.iloc[int(len(df) * 0.8):]
encodings = tokenizer(list(df.text), truncation=True, padding=True)
`

const srcTrain = `def make_loader(frame, frame_df):
    labels = torch.tensor(frame_df[frame].values, dtype=torch.float)
    ids = torch.tensor(encodings["input_ids"])[frame_df.index]
    mask = torch.tensor(encodings["attention_mask"])[frame_df.index]
    dataset = TensorDataset(ids, mask, labels)
    return DataLoader(dataset, batch_size=16, shuffle=True)

models = {}
for frame in FRAMINGS:
    model = BertForSequenceClassification.from_pretrained(
        "bert-base-uncased", num_labels=1)
    optimizer = torch.optim.AdamW(model.parameters(), lr=2e-5)
    loader = make_loader(frame, train_df)
    model.train()
    for epoch in range(EPOCHS):
        for ids, mask, labels in loader:
            optimizer.zero_grad()
            out = model(input_ids=ids, attention_mask=mask,
                        labels=labels.unsqueeze(1))
            out.loss.backward()
            optimizer.step()
    models[frame] = model
`

const srcEvaluate = `predictions = {}
for frame, model in models.items():
    model.eval()
    with torch.no_grad():
        logits = model(torch.tensor(encodings["input_ids"]),
                       torch.tensor(encodings["attention_mask"])).logits
    predictions[frame] = (logits.squeeze(1) > 0).tolist()

pred_df = pd.DataFrame(predictions, index=df.id)
f1 = macro_f1(pred_df.loc[eval_df.id], eval_df[FRAMINGS])
print(f"macro F1 = {f1:.3f}")
pred_df.to_json("wef_predictions.jsonl", orient="records", lines=True)
`

// Notebook implements pipeline.Declaration: WEF as a notebook —
// sequential fine-tuning of the four framing models in one kernel, no
// Ray job.
func (t *Task) Notebook(*pipeline.Env) pipeline.NotebookDecl {
	var ens *textclf.Ensemble
	var out *relation.Table
	var quality map[string]float64
	cells := []*notebook.Cell{
		{Name: "imports", Source: srcImports, Run: func(k *notebook.Kernel) error {
			k.Charge(cost.Work{Interp: 2.0, Mem: 0.6}) // torch + transformers import
			return nil
		}},
		{Name: "load_tokenize", Source: srcLoad, Run: func(k *notebook.Kernel) error {
			k.Charge(workLoad.Scale(float64(len(t.tweets))))
			return nil
		}},
		{Name: "train_models", Source: srcTrain, Run: func(k *notebook.Kernel) error {
			return k.Call("finetune", func() error {
				var err error
				ens, err = t.trainEnsemble()
				if err != nil {
					return err
				}
				steps := float64(t.trainExamples() * t.params.Epochs * len(ens.Models))
				k.Charge(workTrainPerExample.Scale(steps))
				// Manual DataLoader batching overhead (paper Figure 10).
				k.Charge(workBatchOverhead.Scale(steps))
				return nil
			})
		}},
		{Name: "evaluate_write", Source: srcEvaluate, Run: func(k *notebook.Kernel) error {
			var err error
			out, quality, err = t.predictions(ens)
			if err != nil {
				return err
			}
			k.Charge(workPredict.Scale(float64(len(t.tweets) * len(ens.Models))))
			return nil
		}},
	}
	return pipeline.NotebookDecl{
		Cells: cells,
		Revs: map[string][]string{
			"train_models":   {"train"},
			"evaluate_write": {"shape"},
		},
		Output: func() (*relation.Table, map[string]float64, error) { return out, quality, nil },
	}
}
