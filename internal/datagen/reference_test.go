package datagen

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"

	"repro/internal/brat"
	"repro/internal/ml/kge"
	"repro/internal/xrand"
)

// The generators that the one-block versions replaced, kept verbatim
// (renamed) as the oracles TestGenerateProductsMatchesReference and
// TestGenerateClinicalCasesMatchesReference compare against.

func refGenerateProducts(n, users int, outOfStockFrac float64, seed uint64) *ProductWorld {
	r := xrand.New(seed)
	w := &ProductWorld{UserCategory: make(map[string]string)}
	for i := 0; i < n; i++ {
		cat := ProductCategories[i%len(ProductCategories)]
		w.Products = append(w.Products, Product{
			ASIN:     fmt.Sprintf("B%09d", i),
			Title:    fmt.Sprintf("%s %s %d", xrand.Choice(r, productAdjectives), xrand.Choice(r, productNouns), i),
			Category: cat,
			Price:    5 + r.Float64()*195,
			InStock:  !r.Bool(outOfStockFrac),
		})
	}
	for u := 0; u < users; u++ {
		name := fmt.Sprintf("user-%03d", u)
		cat := ProductCategories[u%len(ProductCategories)]
		w.Users = append(w.Users, name)
		w.UserCategory[name] = cat
		// Purchase history: overwhelmingly in-category with light noise.
		bought := 0
		for bought < 12 {
			p := w.Products[r.Intn(len(w.Products))]
			if p.Category != cat && !r.Bool(0.02) {
				continue
			}
			w.Purchases = append(w.Purchases, kge.Triple{Head: name, Rel: "buys", Tail: p.ASIN})
			bought++
		}
	}
	return w
}

// refCaseBuilder assembles text while tracking entity offsets. One builder
// serves every case: its slices are scratch, and each finished case
// takes copies sized to what it holds.
type refCaseBuilder struct {
	text     []byte
	entities []brat.Entity
	events   []brat.Event
}

func (b *refCaseBuilder) write(s string) {
	b.text = append(b.text, s...)
}

// entity appends text and records it as an entity of the given type,
// returning its ID.
func (b *refCaseBuilder) entity(typ, text string) string {
	start := len(b.text)
	b.write(text)
	id := "T" + strconv.Itoa(len(b.entities)+1)
	b.entities = append(b.entities, brat.Entity{
		ID: id, Type: typ, Start: start, End: start + len(text), Text: text,
	})
	return id
}

// event records an event with the given trigger and optional theme.
func (b *refCaseBuilder) event(typ, trigger string, theme string) {
	ev := brat.Event{ID: "E" + strconv.Itoa(len(b.events)+1), Type: typ, Trigger: trigger}
	if theme != "" {
		ev.Args = []brat.Arg{{Role: "Theme", Ref: theme}}
	}
	b.events = append(b.events, ev)
}

// refGenerateClinicalCases builds n MACCROBAT-style (text, annotation)
// pairs. Each case mixes sentences carrying annotated events (some
// with Theme arguments, some without — the split the DICE wrangling
// filters on) with unannotated filler sentences.
func refGenerateClinicalCases(n int, seed uint64) []ClinicalCase {
	r := xrand.New(seed)
	cases := make([]ClinicalCase, n)
	b := &refCaseBuilder{}
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
