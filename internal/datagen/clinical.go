// Package datagen generates the four synthetic datasets the
// experiments run on, shaped after the paper's workloads: MACCROBAT-
// style clinical case reports with standoff annotations (DICE),
// expert-labeled wildfire tweets (WEF), passages with cloze questions
// (GOTTA) and an Amazon-style product/user purchase graph (KGE). All
// generators are deterministic in their seed.
package datagen

import (
	"bytes"
	"strconv"
	"strings"

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

// caseBuilder writes one case at a time into a scratch buffer while
// tracking entity offsets, then files it into run-wide blocks: one
// string of texts, one of case IDs, one entity, event and argument
// slice. It runs over the draws twice. The measuring pass only counts
// what each block needs; the filling pass writes blocks of exactly that
// size, so each case is carved from them and none is ever regrown.
// Entity and event IDs repeat from case to case ("T1", "E1", ...), so
// each is made once and shared.
type caseBuilder struct {
	measure bool // count what the blocks need, store nothing

	text            []byte // the case being written
	caseEnt, caseEv int    // its entities and events so far

	texts, ids strings.Builder
	entities   []brat.Entity
	events     []brat.Event
	args       []brat.Arg
	docs       []brat.Document
	cases      []ClinicalCase

	// What the blocks need, counted by the measuring pass.
	textLen, idLen, nEnt, nEv, nArg int

	tIDs, eIDs []string
}

func (b *caseBuilder) write(s string) {
	b.text = append(b.text, s...)
}

// sharedID returns prefix+strconv.Itoa(k+1), made on first use.
func sharedID(ids *[]string, prefix string, k int) string {
	for len(*ids) <= k {
		*ids = append(*ids, prefix+strconv.Itoa(len(*ids)+1))
	}
	return (*ids)[k]
}

// entity appends text and records it as an entity of the given type,
// returning its ID.
func (b *caseBuilder) entity(typ, text string) string {
	start := len(b.text)
	b.write(text)
	id := sharedID(&b.tIDs, "T", b.caseEnt)
	b.caseEnt++
	if !b.measure {
		b.entities = append(b.entities, brat.Entity{
			ID: id, Type: typ, Start: start, End: start + len(text), Text: text,
		})
	}
	return id
}

// event records an event with the given trigger and optional theme.
func (b *caseBuilder) event(typ, trigger string, theme string) {
	ev := brat.Event{ID: sharedID(&b.eIDs, "E", b.caseEv), Type: typ, Trigger: trigger}
	b.caseEv++
	if theme != "" {
		b.nArg++
		if !b.measure {
			b.args = append(b.args, brat.Arg{Role: "Theme", Ref: theme})
			ev.Args = b.args[len(b.args)-1 : len(b.args) : len(b.args)]
		}
	}
	if !b.measure {
		b.events = append(b.events, ev)
	}
}

// endCase files case i, whose text is in the scratch buffer: the
// measuring pass counts it, the filling pass carves it from the blocks.
func (b *caseBuilder) endCase(i int) {
	text := bytes.TrimRight(b.text, " ")
	var id [16]byte
	caseID := appendCaseID(id[:0], i)
	if b.measure {
		b.textLen += len(text)
		b.idLen += len(caseID)
		b.nEnt += b.caseEnt
		b.nEv += b.caseEv
	} else {
		// A Builder never rewrites what it holds, so a case's text and ID
		// can be cut from its String as soon as they are written.
		textAt, idAt := b.texts.Len(), b.ids.Len()
		b.texts.Write(text)
		b.ids.Write(caseID)
		ents, evs := len(b.entities), len(b.events)
		b.docs[i] = brat.Document{
			Entities: b.entities[ents-b.caseEnt : ents : ents],
			Events:   b.events[evs-b.caseEv : evs : evs],
		}
		b.cases[i] = ClinicalCase{ID: b.ids.String()[idAt:], Text: b.texts.String()[textAt:], Ann: &b.docs[i]}
	}
	b.text, b.caseEnt, b.caseEv = b.text[:0], 0, 0
}

// appendCaseID appends fmt.Sprintf("case-%04d", i) to dst.
func appendCaseID(dst []byte, i int) []byte {
	dst = append(dst, "case-"...)
	for p := 1000; p > 1 && i < p; p /= 10 {
		dst = append(dst, '0')
	}
	return strconv.AppendInt(dst, int64(i), 10)
}

// GenerateClinicalCases builds n MACCROBAT-style (text, annotation)
// pairs. Each case mixes sentences carrying annotated events (some
// with Theme arguments, some without — the split the DICE wrangling
// filters on) with unannotated filler sentences. The cases' texts,
// IDs, documents and annotations are carved from a handful of
// run-wide blocks.
func GenerateClinicalCases(n int, seed uint64) []ClinicalCase {
	size := caseBuilder{measure: true}
	size.generate(n, seed)
	b := caseBuilder{
		text:     size.text,
		entities: make([]brat.Entity, 0, size.nEnt),
		events:   make([]brat.Event, 0, size.nEv),
		args:     make([]brat.Arg, 0, size.nArg),
		docs:     make([]brat.Document, n),
		cases:    make([]ClinicalCase, n),
		tIDs:     size.tIDs,
		eIDs:     size.eIDs,
	}
	b.texts.Grow(size.textLen)
	b.ids.Grow(size.idLen)
	b.generate(n, seed)
	return b.cases
}

// generate draws n cases from seed, in the same order on both passes.
func (b *caseBuilder) generate(n int, seed uint64) {
	r := xrand.New(seed)
	for i := 0; i < n; i++ {
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
		b.endCase(i)
	}
}
