package textproc

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"Hello, World!", []string{"hello", "world"}},
		{"34-yr-old man", []string{"34", "yr", "old", "man"}},
		{"", nil},
		{"...", nil},
		{"UPPER lower MiXeD", []string{"upper", "lower", "mixed"}},
	}
	for _, c := range cases {
		got := Tokenize(c.in)
		if len(got) != len(c.want) {
			t.Fatalf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
			}
		}
	}
}

// FuzzTokenizeMatchesReference holds Tokenize to the implementation it
// replaced: the same tokens in the same order, and nil for none.
func FuzzTokenizeMatchesReference(f *testing.F) {
	for _, seed := range []string{
		"",
		"34-yr-old Man",
		"ÄÖÜ İstanbul",
		"ȺȾ", // lowering grows each rune from 2 bytes to 3
		"ab\xffcd\xc3(ef\xed\xa0\x80",
		strings.Repeat("w1 ", 65),
		strings.Repeat("Ⱥx-", 200),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, want := Tokenize(s), refTokenize(s)
		if (got == nil) != (want == nil) || len(got) != len(want) {
			t.Fatalf("Tokenize(%q) = %q, reference %q", s, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Tokenize(%q) = %q, reference %q", s, got, want)
			}
		}
	})
}

func TestTokenizeAllocations(t *testing.T) {
	s := "Climate change made this #wildfire season 3x worse, say 12 experts"
	if n := testing.AllocsPerRun(100, func() { Tokenize(s) }); n > 2 {
		t.Fatalf("Tokenize allocated %v objects per call, want the lowered copy and the token slice", n)
	}
}

func TestSplitSentencesBasic(t *testing.T) {
	text := "The patient presented with fever. A chest X-ray was performed. Recovery was fast!"
	ss := SplitSentences(text)
	if len(ss) != 3 {
		t.Fatalf("got %d sentences: %v", len(ss), ss)
	}
	if ss[0].Text != "The patient presented with fever." {
		t.Fatalf("first sentence = %q", ss[0].Text)
	}
}

func TestSplitSentencesOffsetsSliceSource(t *testing.T) {
	text := "One sentence here. Another one? Yes."
	for _, s := range SplitSentences(text) {
		if text[s.Start:s.End] != s.Text {
			t.Fatalf("offsets wrong: %q vs %q", text[s.Start:s.End], s.Text)
		}
	}
}

func TestSplitSentencesDecimalsAndAbbreviations(t *testing.T) {
	text := "Temperature was 38.5 degrees. Dr. Smith reviewed the chart."
	ss := SplitSentences(text)
	if len(ss) != 2 {
		t.Fatalf("got %d sentences: %+v", len(ss), ss)
	}
	if !strings.HasPrefix(ss[1].Text, "Dr. Smith") {
		t.Fatalf("abbreviation split wrong: %q", ss[1].Text)
	}
}

func TestSplitSentencesEmptyAndWhitespace(t *testing.T) {
	if got := SplitSentences(""); got != nil {
		t.Fatalf("empty text gave %v", got)
	}
	if got := SplitSentences("   \n  "); got != nil {
		t.Fatalf("whitespace text gave %v", got)
	}
}

func TestSplitSentencesNoTrailingPeriod(t *testing.T) {
	ss := SplitSentences("First. Second without period")
	if len(ss) != 2 {
		t.Fatalf("got %d sentences", len(ss))
	}
	if ss[1].Text != "Second without period" {
		t.Fatalf("tail sentence = %q", ss[1].Text)
	}
}

func TestPropertySentencesCoverDisjointSpans(t *testing.T) {
	words := []string{"fever", "cough", "patient", "presented", "chronic", "severe", "acute", "38", "mg"}
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		var b strings.Builder
		n := 1 + r.Intn(8)
		for i := 0; i < n; i++ {
			m := 1 + r.Intn(6)
			for j := 0; j < m; j++ {
				if j > 0 {
					b.WriteByte(' ')
				}
				b.WriteString(xrand.Choice(r, words))
			}
			b.WriteString(". ")
		}
		text := b.String()
		ss := SplitSentences(text)
		prevEnd := -1
		for _, s := range ss {
			if s.Start < 0 || s.End > len(text) || s.Start >= s.End {
				return false
			}
			if s.Start <= prevEnd {
				return false
			}
			if text[s.Start:s.End] != s.Text {
				return false
			}
			prevEnd = s.End
		}
		return len(ss) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNGrams(t *testing.T) {
	toks := []string{"a", "b", "c", "d"}
	bi := NGrams(toks, 2)
	want := []string{"a b", "b c", "c d"}
	if len(bi) != len(want) {
		t.Fatalf("bigrams = %v", bi)
	}
	for i := range bi {
		if bi[i] != want[i] {
			t.Fatalf("bigrams = %v", bi)
		}
	}
	if NGrams(toks, 0) != nil || NGrams(toks, 5) != nil {
		t.Fatal("degenerate n-grams should be nil")
	}
	uni := NGrams(toks, 4)
	if len(uni) != 1 || uni[0] != "a b c d" {
		t.Fatalf("4-gram = %v", uni)
	}
}
