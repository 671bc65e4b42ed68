package gotta

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/notebook"
	"repro/internal/objstore"
	"repro/internal/pipeline"
	"repro/internal/raysim"
	"repro/internal/relation"
)

// refRunBatches is the inference cell's body as it was before its
// passages ran concurrently: one passage after another, each task
// appended and each answer appended in turn. Kept verbatim (its returns
// now hand back what the cell kept) as the reference the cell must
// reproduce.
func (t *Task) refRunBatches(modelID objstore.ID) ([]Answer, []raysim.TaskSpec) {
	job := make([]raysim.TaskSpec, 0, len(t.passages))
	answers := make([]Answer, 0, t.numQAs())
	for _, p := range t.passages {
		job = append(job, raysim.TaskSpec{
			Name:             "batch-" + p.ID,
			Gets:             []objstore.ID{modelID},
			FrameworkSeconds: forwardSecondsPerQA * float64(len(p.QAs)),
		})
		for qi, qa := range p.QAs {
			pred, em := t.generate(qa.Context, qa.Cloze, qa.Answer)
			answers = append(answers, Answer{
				Passage: p.ID, QA: qi, Cloze: qa.Cloze,
				Gold: qa.Answer, Generated: pred, EM: em,
			})
		}
	}
	return answers, job
}

// serialTask is the task with its notebook's inference cell run by
// refRunBatches, and the evaluate cell and the output reading its
// answers.
type serialTask struct{ *Task }

func (st serialTask) Notebook(env *pipeline.Env) pipeline.NotebookDecl {
	const modelID = objstore.ID("gotta-bart")
	decl := st.Task.Notebook(env)
	var answers []Answer
	var scores map[string]float64
	for _, c := range decl.Cells {
		switch c.Name {
		case "inference":
			c.Run = func(k *notebook.Kernel) error {
				return k.Call("run_batch", func() error {
					var job []raysim.TaskSpec
					answers, job = st.refRunBatches(modelID)
					return env.RunJob(k, job)
				})
			}
		case "evaluate":
			c.Run = func(k *notebook.Kernel) error {
				k.Charge(workEval.Scale(float64(len(answers))))
				scores = quality(answers)
				return nil
			}
		}
	}
	decl.Output = func() (*relation.Table, map[string]float64, error) {
		if len(answers) == 0 {
			return nil, nil, fmt.Errorf("gotta: no answers generated")
		}
		return AnswersToTable(answers), scores, nil
	}
	return decl
}

// TestScriptMatchesSerial holds the concurrent passages to the serial
// loop: at workers 1, 4 and 32, the whole script run's output digest
// (every answer, in its place), quality and simulated seconds (every
// task) against the run of serialTask.
func TestScriptMatchesSerial(t *testing.T) {
	for _, paragraphs := range []int{1, 4, 16} {
		task := newTask(t, paragraphs)
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
			name := fmt.Sprintf("%d paragraphs, workers %d", paragraphs, workers)
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
