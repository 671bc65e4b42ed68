package brat_test

import (
	"testing"

	"repro/internal/brat"
	"repro/internal/datagen"
)

// TestClinicalAnnotationsValid holds every generated DICE case's
// annotations to Validate: unique IDs, resolving references and spans
// inside the text.
func TestClinicalAnnotationsValid(t *testing.T) {
	for _, c := range datagen.GenerateClinicalCases(50, 2) {
		if err := c.Ann.Validate(len(c.Text)); err != nil {
			t.Fatalf("case %s: %v", c.ID, err)
		}
	}
}

// TestRenderMatchesReference renders every generated DICE case — the
// annotation files both paradigms parse — and wants the bytes the
// Fprintf renderer wrote.
func TestRenderMatchesReference(t *testing.T) {
	for _, seed := range []uint64{1, 7} {
		for _, c := range datagen.GenerateClinicalCases(200, seed) {
			if got, want := brat.Render(c.Ann), brat.RefRender(c.Ann); got != want {
				t.Fatalf("seed %d %s: Render = %q, reference %q", seed, c.ID, got, want)
			}
		}
	}
}

// TestParseRenderAllocBounds pins the parse path's objects per file: a
// document, its two slices and the argument arena, then one string —
// whatever the file's line count.
func TestParseRenderAllocBounds(t *testing.T) {
	minLines, maxLines := 1<<30, 0
	for _, c := range datagen.GenerateClinicalCases(200, 1) {
		lines := len(c.Ann.Entities) + len(c.Ann.Events)
		minLines, maxLines = min(minLines, lines), max(maxLines, lines)
		ann := brat.Render(c.Ann)
		if n := testing.AllocsPerRun(5, func() {
			if _, err := brat.ParseString(ann); err != nil {
				t.Fatal(err)
			}
		}); n > 4 {
			t.Errorf("%s: ParseString of %d lines allocated %.0f objects, bound 4", c.ID, lines, n)
		}
		if n := testing.AllocsPerRun(5, func() { brat.Render(c.Ann) }); n > 2 {
			t.Errorf("%s: Render of %d lines allocated %.0f objects, bound 2", c.ID, lines, n)
		}
	}
	if maxLines < 2*minLines {
		t.Fatalf("cases span %d..%d lines: too narrow to show the bounds do not grow with the file", minLines, maxLines)
	}
}
