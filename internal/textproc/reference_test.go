package textproc

import (
	"strings"
	"unicode"
)

// The one-builder-per-token Tokenize that the one-buffer version
// replaced, kept verbatim as the oracle FuzzTokenizeMatchesReference
// compares against.

func refTokenize(s string) []string {
	var tokens []string
	var b strings.Builder
	flush := func() {
		if b.Len() > 0 {
			tokens = append(tokens, b.String())
			b.Reset()
		}
	}
	for _, r := range s {
		switch {
		case unicode.IsLetter(r):
			b.WriteRune(unicode.ToLower(r))
		case unicode.IsDigit(r):
			b.WriteRune(r)
		default:
			flush()
		}
	}
	flush()
	return tokens
}
