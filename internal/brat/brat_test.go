package brat

import (
	"bufio"
	"errors"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

const sample = "T1\tAge 18 27\t34-yr-old\n" +
	"T2\tSex 28 31\tman\n" +
	"T3\tClinical_event 36 45\tpresented\n" +
	"T4\tSign_symptom 65 70\tfever\n" +
	"E1\tClinical_event:T3 Theme:T4\n"

func TestParseSample(t *testing.T) {
	doc, err := ParseString(sample)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Entities) != 4 || len(doc.Events) != 1 {
		t.Fatalf("got %d entities, %d events", len(doc.Entities), len(doc.Events))
	}
	e := doc.Entities[0]
	if e.ID != "T1" || e.Type != "Age" || e.Start != 18 || e.End != 27 || e.Text != "34-yr-old" {
		t.Fatalf("entity = %+v", e)
	}
	ev := doc.Events[0]
	if ev.ID != "E1" || ev.Type != "Clinical_event" || ev.Trigger != "T3" {
		t.Fatalf("event = %+v", ev)
	}
	if len(ev.Args) != 1 || ev.Args[0].Role != "Theme" || ev.Args[0].Ref != "T4" {
		t.Fatalf("args = %+v", ev.Args)
	}
}

func TestParseSkipsBlankLines(t *testing.T) {
	doc, err := ParseString("T1\tAge 0 2\tab\n\n\nE1\tAge:T1\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Entities) != 1 || len(doc.Events) != 1 {
		t.Fatal("blank lines broke parsing")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"X1\tWhat 0 1\tx",    // unknown kind
		"T1\tAge 0\tx",       // missing end offset
		"T1\tAge a b\tx",     // non-numeric offsets
		"T1\tAge 5 2\tx",     // inverted span
		"T1\tAge -1 2\tx",    // negative start
		"T1 Age 0 2 x",       // no tabs
		"E1\t",               // empty event body
		"E1\tTypeOnly",       // missing trigger
		"E1\tType:T1 BadArg", // malformed arg
		"E1\tType:T1 Role:",  // empty ref
		"E1\t:T1",            // empty type
	}
	for i, c := range cases {
		if _, err := ParseString(c); err == nil {
			t.Errorf("case %d (%q): expected error", i, c)
		}
	}
}

func TestRenderRoundTrip(t *testing.T) {
	doc, err := ParseString(sample)
	if err != nil {
		t.Fatal(err)
	}
	if Render(doc) != sample {
		t.Fatalf("render = %q, want %q", Render(doc), sample)
	}
}

func TestValidate(t *testing.T) {
	doc, _ := ParseString(sample)
	if err := doc.Validate(100); err != nil {
		t.Fatal(err)
	}
	if err := doc.Validate(50); err == nil {
		t.Fatal("expected span-exceeds-text error")
	}
	dup := &Document{Entities: []Entity{{ID: "T1", Type: "A", Start: 0, End: 1}, {ID: "T1", Type: "B", Start: 0, End: 1}}}
	if err := dup.Validate(-1); err == nil {
		t.Fatal("expected duplicate id error")
	}
	badTrig := &Document{Events: []Event{{ID: "E1", Type: "X", Trigger: "T9"}}}
	if err := badTrig.Validate(-1); err == nil {
		t.Fatal("expected unresolved trigger error")
	}
	badArg := &Document{
		Entities: []Entity{{ID: "T1", Type: "A", Start: 0, End: 1}},
		Events:   []Event{{ID: "E1", Type: "X", Trigger: "T1", Args: []Arg{{Role: "Theme", Ref: "T7"}}}},
	}
	if err := badArg.Validate(-1); err == nil {
		t.Fatal("expected unresolved arg error")
	}
	dupEvent := &Document{
		Entities: []Entity{{ID: "T1", Type: "A", Start: 0, End: 1}},
		Events: []Event{
			{ID: "E1", Type: "X", Trigger: "T1"},
			{ID: "E1", Type: "Y", Trigger: "T1"},
		},
	}
	if err := dupEvent.Validate(-1); err == nil {
		t.Fatal("expected duplicate event id error")
	}
}

func randomDoc(r *xrand.Rand) *Document {
	types := []string{"Age", "Sex", "Sign_symptom", "Clinical_event", "Medication"}
	words := []string{"fever", "cough", "man", "presented", "34-yr-old"}
	doc := &Document{}
	n := 1 + r.Intn(10)
	for i := 0; i < n; i++ {
		start := r.Intn(500)
		doc.Entities = append(doc.Entities, Entity{
			ID:    "T" + itoa(i+1),
			Type:  xrand.Choice(r, types),
			Start: start,
			End:   start + 1 + r.Intn(20),
			Text:  xrand.Choice(r, words),
		})
	}
	m := r.Intn(6)
	for i := 0; i < m; i++ {
		ev := Event{
			ID:      "E" + itoa(i+1),
			Type:    xrand.Choice(r, types),
			Trigger: "T" + itoa(1+r.Intn(n)),
		}
		for a := 0; a < r.Intn(3); a++ {
			ev.Args = append(ev.Args, Arg{Role: "Theme", Ref: "T" + itoa(1+r.Intn(n))})
		}
		doc.Events = append(doc.Events, ev)
	}
	return doc
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

func TestPropertyRenderParseRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		doc := randomDoc(xrand.New(seed))
		parsed, err := ParseString(Render(doc))
		if err != nil {
			return false
		}
		if len(parsed.Entities) != len(doc.Entities) || len(parsed.Events) != len(doc.Events) {
			return false
		}
		for i := range doc.Entities {
			if parsed.Entities[i] != doc.Entities[i] {
				return false
			}
		}
		for i := range doc.Events {
			a, b := parsed.Events[i], doc.Events[i]
			if a.ID != b.ID || a.Type != b.Type || a.Trigger != b.Trigger || len(a.Args) != len(b.Args) {
				return false
			}
			for j := range a.Args {
				if a.Args[j] != b.Args[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestParseLongLines(t *testing.T) {
	long := "T1\tAge 0 100000\t" + strings.Repeat("x", 100000) + "\n"
	doc, err := ParseString(long)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Entities[0].Text) != 100000 {
		t.Fatal("long line truncated")
	}
	// The line limit is 1 MiB: past it the scanner's error comes back
	// wrapped, not a truncated entity.
	_, err = ParseString("T1\tAge 0 2000000\t" + strings.Repeat("x", 2000000) + "\n")
	if !errors.Is(err, bufio.ErrTooLong) || !strings.HasPrefix(err.Error(), "brat: ") {
		t.Fatalf("line over 1 MiB: err = %v, want bufio.ErrTooLong wrapped as brat: …", err)
	}
}

// TestParseHostilePreallocation feeds inputs whose lines are as short as
// the counting pass can count: 1 MiB of bare "T" lines, of bare "E"
// lines, and one "E" line of colons. Each must be rejected on line 1
// with the error it always had, having allocated at most 16× its size —
// the counts are capped by the shortest line that can parse, as
// DecodeTuple caps its capHint.
func TestParseHostilePreallocation(t *testing.T) {
	const size = 1 << 20
	for _, c := range []struct{ name, in, err string }{
		{"bare T lines", strings.Repeat("T\n", size/2), "brat: line 1: entity needs 3 tab-separated fields, got 1"},
		{"bare E lines", strings.Repeat("E\n", size/2), "brat: line 1: event needs 2 tab-separated fields, got 1"},
		{"E line of colons", "E" + strings.Repeat(":", size-3) + "\n", "brat: line 1: event needs 2 tab-separated fields, got 1"},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ParseString(c.in)
		runtime.ReadMemStats(&after)
		if err == nil || err.Error() != c.err {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.err)
		}
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: %.1f MB allocated", c.name, float64(got)/(1<<20))
		if got > 16*uint64(len(c.in)) {
			t.Errorf("%s: allocated %.1f MB for a %.1f MB input, over 16×", c.name, float64(got)/(1<<20), float64(len(c.in))/(1<<20))
		}
	}
}
