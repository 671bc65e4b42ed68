package brat

import (
	"reflect"
	"strings"
	"testing"
)

// parseSeeds start both parser fuzz targets.
var parseSeeds = []string{
	sample,
	"T1\tAge 18 27\t34-yr-old\n",
	"E1\tClinical_event:T3 Theme:T4\n",
	"",
	"T1\tAge 0\tx\n",
	"garbage",
	"T1\tAge 18 27\t34\tyr\told\n",
}

// FuzzParse checks that arbitrary input never panics the parser and
// that everything it accepts survives a render/parse round trip.
func FuzzParse(f *testing.F) {
	for _, seed := range parseSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		doc, err := ParseString(input)
		if err != nil {
			return
		}
		rendered := Render(doc)
		doc2, err := ParseString(rendered)
		if err != nil {
			t.Fatalf("render output failed to parse: %v\nrendered: %q", err, rendered)
		}
		if len(doc2.Entities) != len(doc.Entities) || len(doc2.Events) != len(doc.Events) {
			t.Fatalf("round trip changed counts: %d/%d -> %d/%d",
				len(doc.Entities), len(doc.Events), len(doc2.Entities), len(doc2.Events))
		}
	})
}

// FuzzValidate checks Validate never panics on parsed documents.
func FuzzValidate(f *testing.F) {
	f.Add(sample, 100)
	f.Fuzz(func(t *testing.T, input string, textLen int) {
		doc, err := ParseString(input)
		if err != nil {
			return
		}
		_ = doc.Validate(textLen)
		_ = doc.EntityByID(strings.Repeat("T", 3))
	})
}

// FuzzParseMatchesReference holds ParseString and Render to the parser
// and renderer they replaced: the same inputs accepted and rejected, the
// same document, the same text written back.
func FuzzParseMatchesReference(f *testing.F) {
	for _, seed := range parseSeeds {
		f.Add(seed)
	}
	// Runs of spaces, a tab and U+00A0 between fields, \r\n and a line of
	// \r alone: where a hand-written splitter and strings.Fields part ways.
	f.Add("T1\tAge  18 27 \tx\r\n\r\nE1\tA:T1\tB:C  D:E \n")
	f.Add("T1\tAge\u00a018\v27\tx\nE1\tA:T1\u2003B:C\x85D:E\n")
	// One line a byte under, at and over the 1 MiB limit, with and
	// without its newline.
	for _, n := range []int{1<<20 - 1, 1 << 20, 1<<20 + 1} {
		head := "T1\tAge 0 9\t"
		line := head + strings.Repeat("x", n-len(head))
		f.Add(line)
		f.Add(line + "\n")
		f.Add(line + "\r\n")
		f.Add("T1\tAge 5 2\tx\n" + line + "\n")
	}
	f.Fuzz(func(t *testing.T, input string) {
		want, wantErr := refParseString(input)
		got, err := ParseString(input)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("ParseString err = %v, reference err = %v", err, wantErr)
		}
		if err != nil {
			if err.Error() != wantErr.Error() {
				t.Fatalf("ParseString err = %q, reference err = %q", err, wantErr)
			}
			return
		}
		if len(got.Entities) != len(want.Entities) || len(got.Events) != len(want.Events) {
			t.Fatalf("got %d entities and %d events, reference %d and %d",
				len(got.Entities), len(got.Events), len(want.Entities), len(want.Events))
		}
		for i := range want.Entities {
			if got.Entities[i] != want.Entities[i] {
				t.Fatalf("entity %d = %+v, reference %+v", i, got.Entities[i], want.Entities[i])
			}
		}
		for i := range want.Events {
			if !reflect.DeepEqual(got.Events[i], want.Events[i]) {
				t.Fatalf("event %d = %+v, reference %+v", i, got.Events[i], want.Events[i])
			}
		}
		if r, ref := Render(got), refRender(want); r != ref {
			t.Fatalf("Render = %q, reference %q", r, ref)
		}
	})
}
