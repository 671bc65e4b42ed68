package textclf

import (
	"fmt"
	"math"

	"repro/internal/textproc"
	"repro/internal/xrand"
)

// The eager model that the lazy-row, encode-once Model replaced, kept
// verbatim (names prefixed ref) as the oracle TestMatchesReference
// compares against: it draws every embedding row up front and
// re-tokenizes its text on every step.

type refModel struct {
	name   string
	hashD  int // embedding table rows
	dim    int // embedding width
	hidden int

	emb [][]float64 // hashD x dim
	w1  [][]float64 // dim x hidden
	b1  []float64
	w2  []float64 // hidden
	b2  float64
}

func refPretrained(name string, hashD, dim, hidden int) (*refModel, error) {
	if hashD <= 0 || dim <= 0 || hidden <= 0 {
		return nil, fmt.Errorf("textclf: sizes must be positive (hashD=%d dim=%d hidden=%d)", hashD, dim, hidden)
	}
	seed := uint64(1469598103934665603)
	for i := 0; i < len(name); i++ {
		seed ^= uint64(name[i])
		seed *= 1099511628211
	}
	r := xrand.New(seed)
	m := &refModel{name: name, hashD: hashD, dim: dim, hidden: hidden}
	m.emb = refRandMatrix(r, hashD, dim, 0.5/math.Sqrt(float64(dim)))
	m.w1 = refRandMatrix(r, dim, hidden, 1/math.Sqrt(float64(dim)))
	m.b1 = make([]float64, hidden)
	m.w2 = make([]float64, hidden)
	for i := range m.w2 {
		m.w2[i] = r.Norm() / math.Sqrt(float64(hidden))
	}
	return m, nil
}

func refRandMatrix(r *xrand.Rand, rows, cols int, scale float64) [][]float64 {
	m := make([][]float64, rows)
	for i := range m {
		m[i] = make([]float64, cols)
		for j := range m[i] {
			m[i][j] = r.Norm() * scale
		}
	}
	return m
}

func (m *refModel) bucket(tok string) int {
	h := uint32(2166136261)
	for i := 0; i < len(tok); i++ {
		h ^= uint32(tok[i])
		h *= 16777619
	}
	return int(h>>1) % m.hashD
}

func (m *refModel) embed(text string) ([]float64, []int) {
	toks := textproc.Tokenize(text)
	x := make([]float64, m.dim)
	var buckets []int
	for _, t := range toks {
		if textproc.Stopwords[t] {
			continue
		}
		b := m.bucket(t)
		buckets = append(buckets, b)
		for j, v := range m.emb[b] {
			x[j] += v
		}
	}
	if len(buckets) > 0 {
		inv := 1 / float64(len(buckets))
		for j := range x {
			x[j] *= inv
		}
	}
	return x, buckets
}

func (m *refModel) forward(x []float64) (h []float64, p float64) {
	h = make([]float64, m.hidden)
	for j := 0; j < m.hidden; j++ {
		s := m.b1[j]
		for i := 0; i < m.dim; i++ {
			s += m.w1[i][j] * x[i]
		}
		if s > 0 {
			h[j] = s
		}
	}
	z := m.b2
	for j, v := range h {
		z += m.w2[j] * v
	}
	return h, stableSigmoid(z)
}

func (m *refModel) Finetune(texts []string, labels []bool, cfg Config) error {
	if len(texts) == 0 {
		return fmt.Errorf("textclf: empty training set")
	}
	if len(texts) != len(labels) {
		return fmt.Errorf("textclf: %d texts, %d labels", len(texts), len(labels))
	}
	epochs := cfg.Epochs
	if epochs == 0 {
		epochs = 5
	}
	lr := cfg.LR
	if lr == 0 {
		lr = 0.05
	}
	r := xrand.New(cfg.Seed)
	idx := make([]int, len(texts))
	for i := range idx {
		idx[i] = i
	}
	for e := 0; e < epochs; e++ {
		r.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for _, i := range idx {
			m.step(texts[i], labels[i], lr)
		}
	}
	return nil
}

func (m *refModel) step(text string, label bool, lr float64) {
	x, buckets := m.embed(text)
	h, p := m.forward(x)
	y := 0.0
	if label {
		y = 1.0
	}
	dz := p - y

	// Output layer.
	dh := make([]float64, m.hidden)
	for j := range h {
		if h[j] > 0 {
			dh[j] = dz * m.w2[j]
		}
		m.w2[j] -= lr * dz * h[j]
	}
	m.b2 -= lr * dz

	// Hidden layer and input gradient.
	dx := make([]float64, m.dim)
	for i := 0; i < m.dim; i++ {
		for j := 0; j < m.hidden; j++ {
			if dh[j] != 0 {
				dx[i] += m.w1[i][j] * dh[j]
				m.w1[i][j] -= lr * dh[j] * x[i]
			}
		}
	}
	for j := 0; j < m.hidden; j++ {
		m.b1[j] -= lr * dh[j]
	}

	// Embedding rows (mean pooling spreads the gradient).
	if len(buckets) > 0 {
		inv := 1 / float64(len(buckets))
		for _, b := range buckets {
			row := m.emb[b]
			for i := range row {
				row[i] -= lr * dx[i] * inv
			}
		}
	}
}

func (m *refModel) Proba(text string) float64 {
	x, _ := m.embed(text)
	_, p := m.forward(x)
	return p
}
