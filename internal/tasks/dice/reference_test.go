package dice

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/brat"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/datagen"
	"repro/internal/notebook"
	"repro/internal/pipeline"
	"repro/internal/raysim"
	"repro/internal/relation"
	"repro/internal/telemetry"
	"repro/internal/textproc"
)

// refOracle and refRecordsToTable are Oracle and RecordsToTable as they
// were before a case's records were built from the sentences the
// script had already split, into one entity map per chunk, and the
// table's rows were carved from one block: a fresh map and sentence
// split per case, a boxed tuple per row. Kept verbatim as the reference
// the current code must reproduce.

func refOracle(cases []datagen.ClinicalCase) ([]Record, error) {
	var out []Record
	for _, c := range cases {
		ents := make(map[string]brat.Entity, len(c.Ann.Entities))
		for _, e := range c.Ann.Entities {
			ents[e.ID] = e
		}
		sents := textproc.SplitSentences(c.Text)
		for _, ev := range c.Ann.Events {
			trig, ok := ents[ev.Trigger]
			if !ok {
				return nil, fmt.Errorf("dice: case %s event %s: unresolved trigger %s", c.ID, ev.ID, ev.Trigger)
			}
			theme := ""
			for _, a := range ev.Args {
				if a.Role == "Theme" {
					th, ok := ents[a.Ref]
					if !ok {
						return nil, fmt.Errorf("dice: case %s event %s: unresolved theme %s", c.ID, ev.ID, a.Ref)
					}
					theme = th.Text
					break
				}
			}
			sentence := ""
			for _, s := range sents {
				if trig.Start >= s.Start && trig.End <= s.End {
					sentence = s.Text
					break
				}
			}
			if sentence == "" {
				return nil, fmt.Errorf("dice: case %s event %s: trigger outside every sentence", c.ID, ev.ID)
			}
			out = append(out, Record{
				Case: c.ID, Event: ev.ID, Type: ev.Type,
				Trigger: trig.Text, Theme: theme, Sentence: sentence,
			})
		}
	}
	return out, nil
}

func refRecordsToTable(recs []Record) *relation.Table {
	t := relation.NewTable(OutputSchema)
	for _, r := range recs {
		t.AppendUnchecked(relation.Tuple{relation.StringValue(r.Case), relation.StringValue(r.Event), relation.StringValue(r.Type),
			relation.StringValue(r.Trigger), relation.StringValue(r.Theme), relation.StringValue(r.Sentence)})
	}
	if err := t.SortBy("case", "event"); err != nil {
		panic(err) // schema is static; cannot fail
	}
	return t
}

// TestMatchesReference holds Oracle's records, RecordsToTable's table
// and the script's output to the reference, across sizes, seeds and
// worker counts (the script's chunking depends on the workers).
func TestMatchesReference(t *testing.T) {
	for _, size := range []int{1, 50, 200} {
		for _, seed := range []uint64{1, 7, 13} {
			task, err := New(Params{Pairs: size, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("size %d seed %d", size, seed)
			want, err := refOracle(task.Cases())
			if err != nil {
				t.Fatal(err)
			}
			got, err := Oracle(task.Cases())
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s: Oracle gives %d records, reference %d, or they differ", name, len(got), len(want))
			}
			wantTbl := refRecordsToTable(want)
			if tbl := RecordsToTable(got); !tbl.Equal(wantTbl) || relation.Digest(tbl) != relation.Digest(wantTbl) {
				t.Fatalf("%s: RecordsToTable differs from the reference", name)
			}
			for _, workers := range []int{1, 4} {
				res, err := task.Run(core.Script, core.RunConfig{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Output.Equal(wantTbl) || relation.Digest(res.Output) != relation.Digest(wantTbl) {
					t.Fatalf("%s workers %d: script output differs from the reference", name, workers)
				}
			}
		}
	}
}

// TestOracleErrorsMatchReference breaks one case each way Oracle can
// refuse it and wants the reference's error, word for word.
func TestOracleErrorsMatchReference(t *testing.T) {
	for _, c := range []struct {
		name    string
		corrupt func(c *datagen.ClinicalCase)
	}{
		{"unresolved trigger", func(c *datagen.ClinicalCase) { c.Ann.Events[0].Trigger = "T999" }},
		{"unresolved theme", func(c *datagen.ClinicalCase) {
			for i := range c.Ann.Events {
				for j := range c.Ann.Events[i].Args {
					if c.Ann.Events[i].Args[j].Role == "Theme" {
						c.Ann.Events[i].Args[j].Ref = "T999"
						return
					}
				}
			}
			panic("no event has a Theme")
		}},
		{"trigger outside every sentence", func(c *datagen.ClinicalCase) {
			for i := range c.Ann.Entities {
				if c.Ann.Entities[i].ID == c.Ann.Events[0].Trigger {
					c.Ann.Entities[i].Start, c.Ann.Entities[i].End = len(c.Text)+5, len(c.Text)+9
				}
			}
		}},
	} {
		task, err := New(Params{Pairs: 6, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		c.corrupt(&task.Cases()[4])
		_, wantErr := refOracle(task.Cases())
		_, err = Oracle(task.Cases())
		if wantErr == nil || err == nil || err.Error() != wantErr.Error() {
			t.Errorf("%s: Oracle error %v, reference %v", c.name, err, wantErr)
		}
	}
}

// refWrangleChunks is the wrangle_chunks cell's body as it was before
// its chunks ran concurrently: one chunk after another, records and
// work accumulated in place, stopping at the first error. Kept verbatim
// (its returns now hand back what the cell kept) as the reference the
// cell must reproduce.
func (t *Task) refWrangleChunks(nChunks int) ([][]Record, []raysim.TaskSpec, error) {
	job := make([]raysim.TaskSpec, 0, nChunks)
	chunkRecords := make([][]Record, nChunks)
	for ci := 0; ci < nChunks; ci++ {
		var work cost.Work
		nRecs := 0 // one record per event
		for i := ci; i < len(t.cases); i += nChunks {
			nRecs += len(t.cases[i].Ann.Events)
		}
		recs := make([]Record, 0, nRecs)
		ents := make(map[string]brat.Entity)
		for i := ci; i < len(t.cases); i += nChunks {
			c := &t.cases[i]
			work = work.Add(workScan.Scale(2)) // .txt + .ann
			// The script reads annotation files from disk, so the
			// parse step consumes rendered text.
			doc, err := parseAnn(c.ID, brat.Render(c.Ann))
			if err != nil {
				return nil, nil, err
			}
			nEvents := len(doc.Events)
			work = work.Add(workParse.Scale(float64(len(doc.Entities) + nEvents)))
			work = work.Add(workFilter.Scale(float64(nEvents)))
			work = work.Add(workJoin.Scale(2 * float64(nEvents))) // theme + trigger joins
			sents := splitCaseSentences(c.Text)
			work = work.Add(workSplit.Scale(float64(len(sents))))
			work = work.Add(workLink.Scale(float64(nEvents * len(sents))))
			recs, err = appendCaseRecords(recs, c, sents, ents)
			if err != nil {
				return nil, nil, err
			}
		}
		chunkRecords[ci] = recs
		job = append(job, raysim.TaskSpec{Name: fmt.Sprintf("wrangle-%d", ci), Work: work})
	}
	return chunkRecords, job, nil
}

// serialTask is the task with its notebook's wrangle_chunks cell run by
// refWrangleChunks, and the aggregate_write cell and the output as they
// were beside it.
type serialTask struct{ *Task }

func (st serialTask) Notebook(env *pipeline.Env) pipeline.NotebookDecl {
	decl := st.Task.Notebook(env)
	var chunkRecords [][]Record
	var out []Record
	for _, c := range decl.Cells {
		switch c.Name {
		case "wrangle_chunks":
			c.Run = func(k *notebook.Kernel) error {
				return k.Call("wrangle_chunk", func() error {
					nChunks := env.Workers * 4
					if nChunks > len(st.cases) {
						nChunks = len(st.cases)
					}
					var job []raysim.TaskSpec
					var err error
					if chunkRecords, job, err = st.refWrangleChunks(nChunks); err != nil {
						return err
					}
					return env.RunJob(k, job)
				})
			}
		case "aggregate_write":
			c.Run = func(k *notebook.Kernel) error {
				out = slices.Concat(chunkRecords...)
				sort.Slice(out, func(i, j int) bool {
					if out[i].Case != out[j].Case {
						return out[i].Case < out[j].Case
					}
					return out[i].Event < out[j].Event
				})
				k.Charge(workWrite.Scale(float64(len(out))))
				return nil
			}
		}
	}
	decl.Output = func() (*relation.Table, map[string]float64, error) {
		return RecordsToTable(out), nil, nil
	}
	return decl
}

// taskSpans returns the simulated spans a run recorded, each as its
// name and the bits of its start and duration: a Ray task's span lasts
// as long as its cost.Work takes.
func taskSpans(rec *telemetry.Recorder) []string {
	var out []string
	for _, sp := range rec.Spans() {
		if sp.HasVirt {
			out = append(out, fmt.Sprintf("%s/%s/%s %x %x", sp.Proc, sp.Track, sp.Name,
				math.Float64bits(sp.Virtual.Start), math.Float64bits(sp.Virtual.Dur)))
		}
	}
	return out
}

// TestScriptMatchesSerial holds the concurrent chunks to the serial loop
// at workers 1, 4 and 32: the script run's output digest, its simulated
// seconds and every simulated span (each wrangle task's work) against
// the run of serialTask, bit for bit.
func TestScriptMatchesSerial(t *testing.T) {
	for _, size := range []int{1, 50, 200} {
		for _, seed := range []uint64{1, 7} {
			task, err := New(Params{Pairs: size, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4, 32} {
				name := fmt.Sprintf("size %d seed %d workers %d", size, seed, workers)
				gotRec, wantRec := telemetry.New(), telemetry.New()
				got, err := pipeline.Run(task, core.Script, core.RunConfig{Workers: workers, Telemetry: gotRec})
				if err != nil {
					t.Fatal(err)
				}
				want, err := pipeline.Run(serialTask{task}, core.Script, core.RunConfig{Workers: workers, Telemetry: wantRec})
				if err != nil {
					t.Fatal(err)
				}
				if relation.Digest(got.Output) != relation.Digest(want.Output) {
					t.Fatalf("%s: output digest differs from the serial run's", name)
				}
				if math.Float64bits(got.SimSeconds) != math.Float64bits(want.SimSeconds) {
					t.Fatalf("%s: %v simulated seconds, serial %v", name, got.SimSeconds, want.SimSeconds)
				}
				gs, ws := taskSpans(gotRec), taskSpans(wantRec)
				if len(ws) < min(workers*4, size) || !slices.Equal(gs, ws) {
					t.Fatalf("%s: simulated spans\n%v\nserial\n%v", name, gs, ws)
				}
			}
		}
	}
}

// TestWrangleErrorsMatchSerial breaks cases that fall in different
// chunks and wants the serial run's error: the lowest-numbered failing
// chunk's, which at 8 pairs and one worker (4 chunks) need not be the
// lowest-numbered case's.
func TestWrangleErrorsMatchSerial(t *testing.T) {
	for _, broken := range [][]int{{1, 4}, {6, 3}, {5}} {
		task, err := New(Params{Pairs: 8, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range broken {
			task.Cases()[i].Ann.Events[0].Trigger = fmt.Sprintf("T99%d", i)
		}
		cfg := core.RunConfig{Workers: 1}
		_, err = pipeline.Run(task, core.Script, cfg)
		_, wantErr := pipeline.Run(serialTask{task}, core.Script, cfg)
		if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
			t.Errorf("cases %v broken: error %v, reference %v", broken, err, wantErr)
		}
	}
}
