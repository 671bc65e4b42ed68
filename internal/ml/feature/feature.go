// Package feature implements text feature extraction: a hashing
// vectorizer and a TF-IDF transformer — the CountVectorizer →
// TfidfTransformer stages of the paper's Figure 1 example pipeline.
package feature

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/textproc"
)

// Vector is a sparse feature vector.
type Vector map[int]float64

// Dot returns the dot product of two sparse vectors. The fold runs
// over sorted indices: float addition does not commute under rounding,
// so accumulating in map order would change the result's last ULPs
// run to run.
func (v Vector) Dot(o Vector) float64 {
	a, b := v, o
	if len(b) < len(a) {
		a, b = b, a
	}
	idx := make([]int, 0, len(a))
	for i := range a {
		idx = append(idx, i)
	}
	slices.Sort(idx)
	var s float64
	for _, i := range idx {
		s += a[i] * b[i]
	}
	return s
}

// AddScaled adds k*o into v in place.
func (v Vector) AddScaled(o Vector, k float64) {
	for i, x := range o {
		v[i] += k * x
	}
}

// Norm returns the L2 norm, folding over sorted indices for a
// bit-stable sum (see Dot).
func (v Vector) Norm() float64 {
	idx := make([]int, 0, len(v))
	for i := range v {
		idx = append(idx, i)
	}
	slices.Sort(idx)
	var s float64
	for _, i := range idx {
		s += v[i] * v[i]
	}
	return math.Sqrt(s)
}

// Scale multiplies every component in place.
func (v Vector) Scale(k float64) {
	for i := range v {
		v[i] *= k
	}
}

// Clone returns a copy of the vector.
func (v Vector) Clone() Vector {
	c := make(Vector, len(v))
	for i, x := range v {
		c[i] = x
	}
	return c
}

// HashingVectorizer maps token counts into a fixed-dimension sparse
// vector using the hashing trick, so no vocabulary needs to be stored.
type HashingVectorizer struct {
	// Dim is the feature-space size; must be positive.
	Dim int
	// Bigrams adds token bigrams as features when true.
	Bigrams bool
	// DropStopwords removes common English stopwords when true.
	DropStopwords bool
}

// NewHashingVectorizer returns a vectorizer with the given dimension.
func NewHashingVectorizer(dim int) (*HashingVectorizer, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("feature: dimension must be positive, got %d", dim)
	}
	return &HashingVectorizer{Dim: dim}, nil
}

// hashToken maps a token to a bucket and a deterministic sign (the
// signed hashing trick reduces collision bias).
func (h *HashingVectorizer) hashToken(tok string) (int, float64) {
	x := uint32(2166136261)
	for i := 0; i < len(tok); i++ {
		x ^= uint32(tok[i])
		x *= 16777619
	}
	sign := 1.0
	if x&1 == 1 {
		sign = -1.0
	}
	return int(x>>1) % h.Dim, sign
}

// Transform converts a document into a term-count sparse vector.
func (h *HashingVectorizer) Transform(doc string) Vector {
	tokens := textproc.Tokenize(doc)
	v := make(Vector)
	kept := tokens[:0:0]
	for _, t := range tokens {
		if h.DropStopwords && textproc.Stopwords[t] {
			continue
		}
		kept = append(kept, t)
		b, s := h.hashToken(t)
		v[b] += s
	}
	if h.Bigrams {
		for _, g := range textproc.NGrams(kept, 2) {
			b, s := h.hashToken(g)
			v[b] += s
		}
	}
	return v
}

// TransformAll vectorizes a corpus.
func (h *HashingVectorizer) TransformAll(docs []string) []Vector {
	out := make([]Vector, len(docs))
	for i, d := range docs {
		out[i] = h.Transform(d)
	}
	return out
}

// TFIDF rescales count vectors by inverse document frequency. Fit it
// on a training corpus, then transform any count vector.
type TFIDF struct {
	idf  map[int]float64
	docs int
}

// FitTFIDF computes smoothed IDF weights from count vectors.
func FitTFIDF(counts []Vector) *TFIDF {
	df := make(map[int]int)
	for _, v := range counts {
		for i, x := range v {
			if x != 0 {
				df[i]++
			}
		}
	}
	t := &TFIDF{idf: make(map[int]float64, len(df)), docs: len(counts)}
	for i, d := range df {
		t.idf[i] = math.Log(float64(1+t.docs)/float64(1+d)) + 1
	}
	return t
}

// Transform returns the L2-normalized TF-IDF weighting of a count
// vector. Unseen features get the maximum IDF.
func (t *TFIDF) Transform(counts Vector) Vector {
	maxIDF := math.Log(float64(1+t.docs)) + 1
	out := make(Vector, len(counts))
	for i, c := range counts {
		idf, ok := t.idf[i]
		if !ok {
			idf = maxIDF
		}
		out[i] = c * idf
	}
	if n := out.Norm(); n > 0 {
		out.Scale(1 / n)
	}
	return out
}

// TransformAll applies Transform to a corpus.
func (t *TFIDF) TransformAll(counts []Vector) []Vector {
	out := make([]Vector, len(counts))
	for i, v := range counts {
		out[i] = t.Transform(v)
	}
	return out
}
