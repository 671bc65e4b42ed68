// Package genqa implements the generative cloze question-answering
// model used by the GOTTA task. The paper's GOTTA uses a fine-tuned
// BART; here the generator answers a cloze question by scoring
// candidate spans from the context against the words surrounding the
// mask — the same black-box contract (context + cloze in, generated
// answer out, exact-match/F1 evaluated), with the paper-scale compute
// and the 1.59 GB model footprint carried by the cost model.
package genqa

import (
	"fmt"
	"strings"

	"repro/internal/textproc"
)

// MaskToken marks the blank in a cloze question.
const MaskToken = "<mask>"

// Example is one evaluation item: a context passage, a cloze question
// derived from it, and the gold answer.
type Example struct {
	Context string
	Cloze   string
	Answer  string
}

// MakeCloze masks the first occurrence of answer in sentence, or
// returns an error if the answer does not occur.
func MakeCloze(sentence, answer string) (string, error) {
	idx := strings.Index(sentence, answer)
	if idx < 0 {
		return "", fmt.Errorf("genqa: answer %q not found in sentence", answer)
	}
	return sentence[:idx] + MaskToken + sentence[idx+len(answer):], nil
}

// Model is the generative QA model.
type Model struct {
	// MaxSpan is the longest answer span (in tokens) the model will
	// generate; default 5 when zero.
	MaxSpan int
	// ModelBytes is the simulated checkpoint footprint; the paper's
	// GOTTA BART is 1.59 GB.
	ModelBytes int64
}

// NewModel returns a model with the paper's checkpoint size.
func NewModel() *Model {
	gb := float64(int64(1) << 30)
	return &Model{MaxSpan: 5, ModelBytes: int64(1.59 * gb)}
}

// tokenizeKeepMask splits a cloze into tokens while preserving the
// mask token's position. Returns the tokens and the mask index, or -1.
func tokenizeKeepMask(cloze string) ([]string, int) {
	idx := strings.Index(cloze, MaskToken)
	if idx < 0 {
		return textproc.Tokenize(cloze), -1
	}
	left := textproc.Tokenize(cloze[:idx])
	right := textproc.Tokenize(cloze[idx+len(MaskToken):])
	tokens := make([]string, 0, len(left)+1+len(right))
	tokens = append(tokens, left...)
	maskPos := len(tokens)
	tokens = append(tokens, MaskToken)
	tokens = append(tokens, right...)
	return tokens, maskPos
}

// Generate answers a cloze question from a context. It slides every
// candidate span (1..MaxSpan tokens) of the context past the mask and
// scores how well the span's neighbourhood matches the cloze's
// neighbourhood; the best-scoring span is returned. An empty string
// means the model abstained (no mask, or empty context).
func (m *Model) Generate(context, cloze string) string {
	maxSpan := m.MaxSpan
	if maxSpan <= 0 {
		maxSpan = 5
	}
	clozeToks, maskPos := tokenizeKeepMask(cloze)
	if maskPos < 0 {
		return ""
	}
	sentences := textproc.SplitSentences(context)
	if len(sentences) == 0 {
		return ""
	}
	// Neighbourhood windows around the mask.
	const window = 4
	left := clozeToks[max(0, maskPos-window):maskPos]
	right := clozeToks[maskPos+1 : min(len(clozeToks), maskPos+1+window)]

	best := ""
	bestScore := -1.0
	// Candidates never cross sentence boundaries — the decoder's
	// stand-in for syntactic coherence — and a span that reaches a
	// boundary the cloze also reaches earns an alignment bonus, which
	// resolves sentence-final answers with no right context.
	for _, sent := range sentences {
		ctxToks := textproc.Tokenize(sent.Text)
		for start := 0; start < len(ctxToks); start++ {
			for span := 1; span <= maxSpan && start+span <= len(ctxToks); span++ {
				score := 0.0
				// Match left context right-to-left, weighting adjacency.
				for k := 1; k <= len(left); k++ {
					ci := start - k
					if ci < 0 {
						break
					}
					if ctxToks[ci] == left[len(left)-k] {
						score += 1.0 / float64(k)
					}
				}
				for k := 0; k < len(right); k++ {
					ci := start + span + k
					if ci >= len(ctxToks) {
						break
					}
					if ctxToks[ci] == right[k] {
						score += 1.0 / float64(k+1)
					}
				}
				if len(right) == 0 && start+span == len(ctxToks) {
					score += 0.5 // both end at a sentence boundary
				}
				if len(left) == 0 && start == 0 {
					score += 0.5 // both start at a sentence boundary
				}
				// Prefer shorter spans on ties (generation brevity
				// prior).
				score -= 0.01 * float64(span-1)
				if score > bestScore {
					bestScore = score
					best = strings.Join(ctxToks[start:start+span], " ")
				}
			}
		}
	}
	return best
}

// normalize lowercases and tokenizes an answer for comparison, the
// standard SQuAD-style normalization.
func normalize(s string) []string {
	return textproc.Tokenize(s)
}

// ExactMatch reports whether the prediction equals the gold answer
// after normalization.
func ExactMatch(pred, gold string) bool {
	p, g := normalize(pred), normalize(gold)
	if len(p) != len(g) {
		return false
	}
	for i := range p {
		if p[i] != g[i] {
			return false
		}
	}
	return len(p) > 0
}

// F1 returns the token-overlap F1 between prediction and gold.
func F1(pred, gold string) float64 {
	p, g := normalize(pred), normalize(gold)
	if len(p) == 0 || len(g) == 0 {
		if len(p) == len(g) {
			return 1
		}
		return 0
	}
	counts := make(map[string]int, len(g))
	for _, t := range g {
		counts[t]++
	}
	common := 0
	for _, t := range p {
		if counts[t] > 0 {
			counts[t]--
			common++
		}
	}
	if common == 0 {
		return 0
	}
	precision := float64(common) / float64(len(p))
	recall := float64(common) / float64(len(g))
	return 2 * precision * recall / (precision + recall)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
