package dice

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/brat"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/relation"
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
