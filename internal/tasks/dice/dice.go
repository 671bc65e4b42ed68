// Package dice implements Task 1 of the reproduced paper: the DICE
// data-wrangling pipeline over MACCROBAT-style clinical case reports
// (paper Figure 4). Annotation files are parsed into entity and event
// streams; events are filtered by whether they carry a Theme argument;
// the Theme subset is joined with entities, rejoined with the held-out
// subset, resolved to trigger spans, and finally linked to the
// sentence containing each trigger — producing MACCROBAT-EE records.
//
// The task is implemented twice: as a notebook script (scaled out with
// the Ray-style backend) and as a dataflow workflow, per the paper's
// comparison design.
package dice

import (
	"fmt"

	"repro/internal/brat"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/datagen"
	"repro/internal/pipeline"
	"repro/internal/relation"
	"repro/internal/textproc"
)

// Params sizes the task.
type Params struct {
	// Pairs is the number of (text, annotation) file pairs; the paper
	// scales from 10 to the full 200.
	Pairs int
	// Seed drives the synthetic MACCROBAT generator.
	Seed uint64
}

// Task is the DICE workload bound to a generated dataset. The embedded
// pipeline.Base runs it; edit stages are parse, split and write.
type Task struct {
	pipeline.Base
	params Params
	cases  []datagen.ClinicalCase
}

// The registry entry makes the task runnable by name from the CLI and
// the experiment harness; the default size is the paper's full scale.
func init() {
	core.RegisterTask("dice", 200, func(size int, seed uint64) (core.Task, error) {
		return New(Params{Pairs: size, Seed: seed})
	})
}

// New generates the dataset and returns the task.
func New(p Params) (*Task, error) {
	if p.Pairs <= 0 {
		return nil, fmt.Errorf("dice: pairs must be positive, got %d", p.Pairs)
	}
	t := &Task{params: p, cases: datagen.GenerateClinicalCases(p.Pairs, p.Seed)}
	t.Bind(t)
	return t, nil
}

// Name implements core.Task.
func (t *Task) Name() string { return "dice" }

// Scope implements pipeline.Declaration.
func (t *Task) Scope(_ core.Paradigm, workers int) string {
	return fmt.Sprintf("pairs=%d,seed=%d,workers=%d", t.params.Pairs, t.params.Seed, workers)
}

// Cases exposes the generated dataset (read-only by convention).
func (t *Task) Cases() []datagen.ClinicalCase { return t.cases }

// Calibrated per-record work constants (Python-seconds). They are
// chosen so the end-to-end simulated times land near the paper's
// Figure 13a/14a measurements; see EXPERIMENTS.md.
var (
	// workParse is charged per annotation line parsed.
	workParse = cost.Work{Interp: 15e-3, Mem: 1e-3}
	// workFilter is charged per event classified by Theme presence.
	workFilter = cost.Work{Interp: 4e-3, Mem: 0.5e-3}
	// workJoin is charged per event joined against the entity table.
	workJoin = cost.Work{Interp: 24e-3, Mem: 3e-3}
	// workSplit is charged per sentence produced by the splitter.
	workSplit = cost.Work{Interp: 24e-3, Mem: 2e-3}
	// workLink is charged per (event, sentence) pair examined by the
	// sentence-linking join.
	workLink = cost.Work{Interp: 6e-3, Mem: 0.6e-3}
	// workWrite is charged per output record written by the driver (a
	// serial step, which is part of why the script paradigm's speedup
	// flattens as workers grow in Figure 14a).
	workWrite = cost.Work{Interp: 16e-3, Mem: 1e-3}
	// workScan is charged per source file read from disk.
	workScan = cost.Work{Interp: 48e-3, Mem: 8e-3}
)

// OutputSchema is the MACCROBAT-EE record layout.
var OutputSchema = relation.MustSchema(
	relation.Field{Name: "case", Type: relation.String},
	relation.Field{Name: "event", Type: relation.String},
	relation.Field{Name: "etype", Type: relation.String},
	relation.Field{Name: "trigger", Type: relation.String},
	relation.Field{Name: "theme", Type: relation.String},
	relation.Field{Name: "sentence", Type: relation.String},
)

// Record is one MACCROBAT-EE output row in struct form.
type Record struct {
	Case     string
	Event    string
	Type     string
	Trigger  string
	Theme    string
	Sentence string
}

// Oracle computes the expected output directly, as the testing
// reference both paradigm implementations must reproduce.
func Oracle(cases []datagen.ClinicalCase) ([]Record, error) {
	var out []Record
	ents := make(map[string]brat.Entity)
	for i := range cases {
		var err error
		out, err = appendCaseRecords(out, &cases[i], splitCaseSentences(cases[i].Text), ents)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// appendCaseRecords appends one case's records to out: each event with
// its trigger and first Theme resolved against the case's entities and
// linked to the sentence of sents that contains its trigger. ents is
// scratch space, cleared and refilled with the case's entities, so one
// map serves every case of a loop.
func appendCaseRecords(out []Record, c *datagen.ClinicalCase, sents []textproc.Sentence, ents map[string]brat.Entity) ([]Record, error) {
	clear(ents)
	for _, e := range c.Ann.Entities {
		ents[e.ID] = e
	}
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
	return out, nil
}

// RecordsToTable converts records to the canonical output table,
// sorted for order-independent comparison. Its rows are carved from
// one block of cells.
func RecordsToTable(recs []Record) *relation.Table {
	t := relation.NewTable(OutputSchema)
	cells := make([]relation.Value, 6*len(recs))
	for i, r := range recs {
		row := cells[6*i : 6*i+6 : 6*i+6]
		row[0], row[1], row[2] = relation.StringValue(r.Case), relation.StringValue(r.Event), relation.StringValue(r.Type)
		row[3], row[4], row[5] = relation.StringValue(r.Trigger), relation.StringValue(r.Theme), relation.StringValue(r.Sentence)
		t.AppendUnchecked(row)
	}
	if err := t.SortBy("case", "event"); err != nil {
		panic(err) // schema is static; cannot fail
	}
	return t
}

// annFileTable renders the annotation files as a relational source
// {case, ann}.
func (t *Task) annFileTable() *relation.Table {
	return t.fileTable("ann", func(c *datagen.ClinicalCase) string { return brat.Render(c.Ann) })
}

// textFileTable renders the text files as a relational source
// {case, text}.
func (t *Task) textFileTable() *relation.Table {
	return t.fileTable("text", func(c *datagen.ClinicalCase) string { return c.Text })
}

// fileTable is a source {case, column} with one row per case, its rows
// carved from one block of cells.
func (t *Task) fileTable(column string, content func(*datagen.ClinicalCase) string) *relation.Table {
	tbl := relation.NewTable(relation.MustSchema(
		relation.Field{Name: "case", Type: relation.String},
		relation.Field{Name: column, Type: relation.String},
	))
	cells := make([]relation.Value, 2*len(t.cases))
	for i := range t.cases {
		row := cells[2*i : 2*i+2 : 2*i+2]
		row[0], row[1] = relation.StringValue(t.cases[i].ID), relation.StringValue(content(&t.cases[i]))
		tbl.AppendUnchecked(row)
	}
	return tbl
}

// parseAnn parses one case's annotation file, naming the case in the
// error, as the parse step of either paradigm reports it.
func parseAnn(caseID, ann string) (*brat.Document, error) {
	doc, err := brat.ParseString(ann)
	if err != nil {
		return nil, fmt.Errorf("dice: case %s: %w", caseID, err)
	}
	return doc, nil
}

// themeRef returns the annotation an event's first Theme argument
// refers to, or "".
func themeRef(ev *brat.Event) string {
	for _, a := range ev.Args {
		if a.Role == "Theme" {
			return a.Ref
		}
	}
	return ""
}

// splitCaseSentences splits one case text into (sentence, span) rows.
func splitCaseSentences(text string) []textproc.Sentence {
	return textproc.SplitSentences(text)
}
