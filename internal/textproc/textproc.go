// Package textproc provides the text-processing primitives shared by
// the data-science tasks: tokenization, sentence splitting with
// character offsets (required to link clinical annotations to their
// sentences in the DICE task), vocabularies and n-grams.
package textproc

import (
	"strings"
	"unicode"
)

// Tokenize lowercases s and splits it into alphanumeric tokens.
// Punctuation separates tokens; digits stay inside tokens ("34-yr-old"
// becomes ["34", "yr", "old"]). Tokens share one lowered copy of s.
func Tokenize(s string) []string {
	var b strings.Builder
	b.Grow(len(s)) // lowering can grow a rune's bytes; then b regrows
	var stack [64]int
	ends := stack[:0]
	cut := func() {
		if n := b.Len(); n > 0 && (len(ends) == 0 || ends[len(ends)-1] != n) {
			ends = append(ends, n)
		}
	}
	for _, r := range s {
		switch {
		case unicode.IsLetter(r):
			b.WriteRune(unicode.ToLower(r))
		case unicode.IsDigit(r):
			b.WriteRune(r)
		default:
			cut()
		}
	}
	cut()
	if len(ends) == 0 {
		return nil
	}
	tokens := make([]string, len(ends))
	start := 0
	for i, end := range ends {
		tokens[i] = b.String()[start:end]
		start = end
	}
	return tokens
}

// Sentence is a sentence with its character span in the source text.
// End is exclusive.
type Sentence struct {
	Text  string
	Start int
	End   int
}

// abbreviations that should not terminate a sentence. Clinical text is
// full of them.
var abbreviations = map[string]bool{
	"dr": true, "mr": true, "mrs": true, "ms": true, "vs": true,
	"e.g": true, "i.e": true, "etc": true, "fig": true, "approx": true,
	"no": true, "pt": true, "dx": true, "hx": true,
}

// SplitSentences splits text into sentences on '.', '!' and '?'
// boundaries followed by whitespace, skipping common abbreviations and
// decimal points. Offsets are byte offsets into text; the sentence text
// is trimmed but offsets cover the trimmed span.
func SplitSentences(text string) []Sentence {
	n := len(text)
	// Every sentence but the last ends at a mark, so the marks bound the
	// count and out never regrows.
	marks := 0
	for i := 0; i < n; i++ {
		if isMark(text[i]) {
			marks++
		}
	}
	out := make([]Sentence, 0, marks+1)
	start := 0
	for i := 0; i < n; i++ {
		c := text[i]
		if !isMark(c) {
			continue
		}
		// Decimal point: digit on both sides.
		if c == '.' && i > 0 && i+1 < n && isDigit(text[i-1]) && isDigit(text[i+1]) {
			continue
		}
		// Abbreviation before the period.
		if c == '.' && isAbbreviation(text[start:i]) {
			continue
		}
		// A boundary requires end-of-text or whitespace after the mark.
		if i+1 < n && !isSpace(text[i+1]) {
			continue
		}
		if s, ok := trimSpan(text, start, i+1); ok {
			out = append(out, s)
		}
		start = i + 1
	}
	if s, ok := trimSpan(text, start, n); ok {
		out = append(out, s)
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

func isMark(b byte) bool  { return b == '.' || b == '!' || b == '?' }
func isDigit(b byte) bool { return b >= '0' && b <= '9' }
func isSpace(b byte) bool { return b == ' ' || b == '\n' || b == '\t' || b == '\r' }

// isAbbreviation reports whether the text immediately before a period
// ends in a known abbreviation token.
func isAbbreviation(before string) bool {
	j := len(before)
	i := j
	for i > 0 {
		c := before[i-1]
		if c == ' ' || c == '\n' || c == '\t' {
			break
		}
		i--
	}
	word := strings.ToLower(before[i:j])
	word = strings.TrimSuffix(word, ".")
	return abbreviations[word]
}

// trimSpan trims whitespace from text[start:end] and returns the
// sentence with adjusted offsets; ok is false for all-whitespace spans.
func trimSpan(text string, start, end int) (Sentence, bool) {
	for start < end && isSpace(text[start]) {
		start++
	}
	for end > start && isSpace(text[end-1]) {
		end--
	}
	if start >= end {
		return Sentence{}, false
	}
	return Sentence{Text: text[start:end], Start: start, End: end}, true
}

// NGrams returns the contiguous n-grams of tokens joined by spaces.
func NGrams(tokens []string, n int) []string {
	if n <= 0 || len(tokens) < n {
		return nil
	}
	out := make([]string, 0, len(tokens)-n+1)
	for i := 0; i+n <= len(tokens); i++ {
		out = append(out, strings.Join(tokens[i:i+n], " "))
	}
	return out
}

// Stopwords is a small English stopword set used by feature
// extraction.
var Stopwords = map[string]bool{
	"a": true, "an": true, "the": true, "and": true, "or": true,
	"of": true, "to": true, "in": true, "on": true, "for": true,
	"with": true, "is": true, "was": true, "are": true, "were": true,
	"be": true, "been": true, "at": true, "by": true, "as": true,
	"that": true, "this": true, "it": true, "from": true, "his": true,
	"her": true, "had": true, "has": true, "have": true, "who": true,
}
