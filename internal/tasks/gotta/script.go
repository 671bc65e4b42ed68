package gotta

import (
	"fmt"

	"repro/internal/notebook"
	"repro/internal/objstore"
	"repro/internal/par"
	"repro/internal/pipeline"
	"repro/internal/raysim"
	"repro/internal/relation"
)

// Notebook cell sources (pseudo-Python).

const srcImports = `import ray
import torch
from transformers import BartForConditionalGeneration, BartTokenizer
from gotta.evaluation import exact_match, token_f1

ray.init(address="auto")
`

const srcLoadModel = `tokenizer = BartTokenizer.from_pretrained("gotta-bart-large")
model = BartForConditionalGeneration.from_pretrained("gotta-bart-large")
model.eval()
model_ref = ray.put(model)
`

const srcBuildPrompts = `passages = load_passages("passages.jsonl")
prompt_batches = []
for passage in passages:
    batch = []
    for qa in passage.qas:
        question = qa["cloze"]
        answers = qa["answer"]
        prompt = f"Question: {question} Context: {passage.text}"
        batch.append({"passage": passage.id, "qa": qa["idx"],
                      "prompt": prompt, "answer": answers})
    prompt_batches.append(batch)
`

const srcInference = `@ray.remote
def run_batch(model_ref, batch):
    model = ray.get(model_ref)
    outputs = []
    for item in batch:
        ids = tokenizer(item["prompt"], return_tensors="pt")
        with torch.no_grad():
            gen = model.generate(**ids, max_new_tokens=16)
        text = tokenizer.decode(gen[0], skip_special_tokens=True)
        outputs.append({**item, "generated": text})
    return outputs

futures = [run_batch.remote(model_ref, b) for b in prompt_batches]
results = ray.get(futures)
`

const srcEvaluate = `answers = [a for batch in results for a in batch]
em = sum(exact_match(a["generated"], a["answer"]) for a in answers)
f1 = sum(token_f1(a["generated"], a["answer"]) for a in answers)
print(f"EM = {em / len(answers):.3f}  F1 = {f1 / len(answers):.3f}")
save_jsonl("gotta_answers.jsonl", answers)
`

// Notebook implements pipeline.Declaration: GOTTA as a Ray-scaled
// notebook — the model is put into the shared object store once, then
// one task per paragraph fetches it and runs the forward pass pinned to
// a single CPU.
func (t *Task) Notebook(env *pipeline.Env) pipeline.NotebookDecl {
	const modelID = objstore.ID("gotta-bart")
	var answers []Answer
	var scores map[string]float64
	cells := []*notebook.Cell{
		{Name: "imports", Source: srcImports, Run: func(k *notebook.Kernel) error {
			k.Charge(workImports)
			return nil
		}},
		{Name: "load_model", Source: srcLoadModel, Run: func(k *notebook.Kernel) error {
			k.Charge(workModelInit)
			secs, err := env.Put(modelID, t.model.ModelBytes)
			if err != nil {
				return err
			}
			k.ChargeSeconds(secs)
			return nil
		}},
		{Name: "build_prompts", Source: srcBuildPrompts, Run: func(k *notebook.Kernel) error {
			k.Charge(workPrompt.Scale(float64(t.numQAs())))
			return nil
		}},
		{Name: "inference", Source: srcInference, Run: func(k *notebook.Kernel) error {
			return k.Call("run_batch", func() error {
				// One task per passage; passages answer concurrently, into their slots.
				job := make([]raysim.TaskSpec, len(t.passages))
				starts := make([]int, len(t.passages))
				n := 0
				for pi, p := range t.passages {
					job[pi] = raysim.TaskSpec{
						Name:             "batch-" + p.ID,
						Gets:             []objstore.ID{modelID},
						FrameworkSeconds: forwardSecondsPerQA * float64(len(p.QAs)),
					}
					starts[pi], n = n, n+len(p.QAs)
				}
				answers = make([]Answer, n)
				par.Do(len(t.passages), func(pi int) {
					p := &t.passages[pi]
					for qi, qa := range p.QAs {
						pred, em := t.generate(qa.Context, qa.Cloze, qa.Answer)
						answers[starts[pi]+qi] = Answer{
							Passage: p.ID, QA: qi, Cloze: qa.Cloze,
							Gold: qa.Answer, Generated: pred, EM: em,
						}
					}
				})
				return env.RunJob(k, job)
			})
		}},
		{Name: "evaluate", Source: srcEvaluate, Run: func(k *notebook.Kernel) error {
			k.Charge(workEval.Scale(float64(len(answers))))
			scores = quality(answers)
			return nil
		}},
	}
	return pipeline.NotebookDecl{
		Cells: cells,
		Revs: map[string][]string{
			"build_prompts": {"prompts"},
			"evaluate":      {"evaluate"},
		},
		Output: func() (*relation.Table, map[string]float64, error) {
			if len(answers) == 0 {
				return nil, nil, fmt.Errorf("gotta: no answers generated")
			}
			return AnswersToTable(answers), scores, nil
		},
	}
}
