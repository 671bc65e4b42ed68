package genqa

import (
	"math"
	"strings"
	"testing"
)

const passage = "The patient was admitted with severe dehydration. Doctors prescribed intravenous fluids immediately. " +
	"A chest radiograph revealed bilateral infiltrates. The treatment continued for five days."

func TestMakeCloze(t *testing.T) {
	c, err := MakeCloze("Doctors prescribed intravenous fluids immediately.", "intravenous fluids")
	if err != nil {
		t.Fatal(err)
	}
	if c != "Doctors prescribed "+MaskToken+" immediately." {
		t.Fatalf("cloze = %q", c)
	}
	if _, err := MakeCloze("no answer here", "missing"); err == nil {
		t.Fatal("expected error for absent answer")
	}
}

func TestGenerateRecoversMaskedSpan(t *testing.T) {
	m := NewModel()
	cases := []string{"severe dehydration", "intravenous fluids", "bilateral infiltrates", "five days"}
	for _, answer := range cases {
		sentence := ""
		for _, s := range strings.Split(passage, ". ") {
			if strings.Contains(s, answer) {
				sentence = s
				break
			}
		}
		cloze, err := MakeCloze(sentence, answer)
		if err != nil {
			t.Fatal(err)
		}
		pred := m.Generate(passage, cloze)
		if !ExactMatch(pred, answer) {
			t.Fatalf("answer %q: generated %q", answer, pred)
		}
	}
}

func TestGenerateAbstains(t *testing.T) {
	m := NewModel()
	if got := m.Generate(passage, "no mask here"); got != "" {
		t.Fatalf("no-mask cloze generated %q", got)
	}
	if got := m.Generate("", "a "+MaskToken+" b"); got != "" {
		t.Fatalf("empty context generated %q", got)
	}
}

func TestGenerateMaskAtEdges(t *testing.T) {
	m := NewModel()
	if got := m.Generate("alpha beta gamma", MaskToken+" beta gamma"); !ExactMatch(got, "alpha") {
		t.Fatalf("leading mask -> %q", got)
	}
	if got := m.Generate("alpha beta gamma", "alpha beta "+MaskToken); !ExactMatch(got, "gamma") {
		t.Fatalf("trailing mask -> %q", got)
	}
}

func TestExactMatchNormalization(t *testing.T) {
	if !ExactMatch("Intravenous Fluids", "intravenous fluids") {
		t.Fatal("case should not matter")
	}
	if !ExactMatch("five days.", "five days") {
		t.Fatal("punctuation should not matter")
	}
	if ExactMatch("five", "five days") {
		t.Fatal("partial span should not match")
	}
	if ExactMatch("", "") {
		t.Fatal("empty strings should not count as a match")
	}
}

func TestF1(t *testing.T) {
	if F1("five days", "five days") != 1 {
		t.Fatal("perfect overlap should be 1")
	}
	if F1("wrong", "five days") != 0 {
		t.Fatal("no overlap should be 0")
	}
	got := F1("five", "five days")
	want := 2 * (1.0 * 0.5) / (1.0 + 0.5)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("partial F1 = %v, want %v", got, want)
	}
	if F1("", "") != 1 {
		t.Fatal("two abstentions count as agreement")
	}
	if F1("x", "") != 0 || F1("", "x") != 0 {
		t.Fatal("one-sided abstention is 0")
	}
}

func TestModelBytes(t *testing.T) {
	m := NewModel()
	gb := float64(int64(1) << 30)
	low := int64(1.5 * gb)
	high := int64(1.7 * gb)
	if m.ModelBytes < low || m.ModelBytes > high {
		t.Fatalf("model bytes = %d, want ~1.59 GB", m.ModelBytes)
	}
}
