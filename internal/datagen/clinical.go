// Package datagen generates the four synthetic datasets the
// experiments run on, shaped after the paper's workloads: MACCROBAT-
// style clinical case reports with standoff annotations (DICE),
// expert-labeled wildfire tweets (WEF), passages with cloze questions
// (GOTTA) and an Amazon-style product/user purchase graph (KGE). All
// generators are deterministic in their seed.
package datagen

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"

	"repro/internal/brat"
	"repro/internal/xrand"
)

// ClinicalCase is one text file plus its annotation file — the unit of
// the MACCROBAT dataset (200 such pairs in the paper).
type ClinicalCase struct {
	ID   string
	Text string
	Ann  *brat.Document
}

var (
	ages     = []string{"34-yr-old", "58-yr-old", "7-yr-old", "81-yr-old", "25-yr-old"}
	sexes    = []string{"man", "woman", "boy", "girl"}
	symptoms = []string{
		"fever", "chronic cough", "chest pain", "shortness of breath",
		"abdominal pain", "severe headache", "fatigue", "night sweats",
		"joint swelling", "persistent nausea",
	}
	clinicalEvents = []string{"presented", "was admitted", "underwent surgery", "was discharged", "returned"}
	labs           = []string{"elevated white cell count", "low hemoglobin", "raised CRP", "abnormal liver enzymes"}
	medications    = []string{"intravenous antibiotics", "corticosteroids", "anticoagulants", "analgesics"}
	followups      = []string{
		"The remainder of the examination was unremarkable",
		"Vital signs were stable on arrival",
		"The family history was noncontributory",
		"No prior episodes were reported",
	}
)

// caseBuilder assembles text while tracking entity offsets. One builder
// serves every case: its slices are scratch, and each finished case
// takes copies sized to what it holds.
type caseBuilder struct {
	text     []byte
	entities []brat.Entity
	events   []brat.Event
}

func (b *caseBuilder) write(s string) {
	b.text = append(b.text, s...)
}

// entity appends text and records it as an entity of the given type,
// returning its ID.
func (b *caseBuilder) entity(typ, text string) string {
	start := len(b.text)
	b.write(text)
	id := "T" + strconv.Itoa(len(b.entities)+1)
	b.entities = append(b.entities, brat.Entity{
		ID: id, Type: typ, Start: start, End: start + len(text), Text: text,
	})
	return id
}

// event records an event with the given trigger and optional theme.
func (b *caseBuilder) event(typ, trigger string, theme string) {
	ev := brat.Event{ID: "E" + strconv.Itoa(len(b.events)+1), Type: typ, Trigger: trigger}
	if theme != "" {
		ev.Args = []brat.Arg{{Role: "Theme", Ref: theme}}
	}
	b.events = append(b.events, ev)
}

// GenerateClinicalCases builds n MACCROBAT-style (text, annotation)
// pairs. Each case mixes sentences carrying annotated events (some
// with Theme arguments, some without — the split the DICE wrangling
// filters on) with unannotated filler sentences.
func GenerateClinicalCases(n int, seed uint64) []ClinicalCase {
	r := xrand.New(seed)
	cases := make([]ClinicalCase, n)
	b := &caseBuilder{}
	for i := 0; i < n; i++ {
		b.text, b.entities, b.events = b.text[:0], b.entities[:0], b.events[:0]

		// Opening sentence with Age/Sex entities and a presentation
		// event whose Theme is the first symptom.
		b.write("The patient was a ")
		b.entity("Age", xrand.Choice(r, ages))
		b.write(" ")
		b.entity("Sex", xrand.Choice(r, sexes))
		b.write(" who ")
		trigger := b.entity("Clinical_event", xrand.Choice(r, clinicalEvents))
		b.write(" with complaints of ")
		theme := b.entity("Sign_symptom", xrand.Choice(r, symptoms))
		b.write(". ")
		b.event("Clinical_event", trigger, theme)

		// 3..9 further sentences of varied shapes.
		extra := 3 + r.Intn(7)
		for s := 0; s < extra; s++ {
			switch r.Intn(4) {
			case 0: // symptom event without a theme argument
				b.write("Examination revealed ")
				sym := b.entity("Sign_symptom", xrand.Choice(r, symptoms))
				b.write(". ")
				b.event("Sign_symptom", sym, "")
			case 1: // lab finding linked to a medication theme
				b.write("Laboratory tests showed ")
				lab := b.entity("Lab_value", xrand.Choice(r, labs))
				b.write(" and treatment with ")
				med := b.entity("Medication", xrand.Choice(r, medications))
				b.write(" was started. ")
				b.event("Therapeutic_procedure", lab, med)
			case 2: // clinical event without theme
				b.write("The patient subsequently ")
				ev := b.entity("Clinical_event", xrand.Choice(r, clinicalEvents))
				b.write(". ")
				b.event("Clinical_event", ev, "")
			default: // filler sentence with no annotations
				b.write(xrand.Choice(r, followups))
				b.write(". ")
			}
		}

		cases[i] = ClinicalCase{
			ID:   fmt.Sprintf("case-%04d", i),
			Text: string(bytes.TrimRight(b.text, " ")),
			Ann:  &brat.Document{Entities: slices.Clone(b.entities), Events: slices.Clone(b.events)},
		}
	}
	return cases
}
