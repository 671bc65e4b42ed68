// Package textclf implements a small fine-tunable text classifier: a
// hashed embedding bag feeding a one-hidden-layer MLP trained with
// backpropagation. It is the reproduction's stand-in for the
// pre-trained BERT models the WEF task fine-tunes — same pipeline shape
// (load a pre-trained encoder, fine-tune on labeled tweets, predict),
// at laptop scale. The paper-scale compute cost is carried by the cost
// model, not by this implementation.
package textclf

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/par"
	"repro/internal/textproc"
	"repro/internal/xrand"
)

// Config controls fine-tuning.
type Config struct {
	Epochs int     // default 5
	LR     float64 // default 0.05
	Seed   uint64
}

// Model is one binary classifier. It is not safe for concurrent use:
// Proba draws embedding rows on first read, and every pass works in the
// model's own scratch vectors.
type Model struct {
	name   string
	hashD  int // embedding table rows
	dim    int // embedding width
	hidden int

	// emb[b] is nil until row b is first read; it is then drawn from
	// rowRand[b], the generator state Pretrained skipped the row at.
	emb          [][]float64 // hashD x dim
	rowRand      []xrand.Rand
	w1           []float64 // dim x hidden, row-major
	b1           []float64
	w2           []float64 // hidden
	b2           float64
	x, h, dh, dx []float64 // one pass's input, hidden and gradient vectors
}

// Pretrained builds a model whose embedding table is deterministically
// initialized from name — the stand-in for downloading a pre-trained
// checkpoint. hashD is the embedding-table size, dim the embedding
// width, hidden the MLP width. Rows are drawn lazily, to their eager values.
func Pretrained(name string, hashD, dim, hidden int) (*Model, error) {
	if hashD <= 0 || dim <= 0 || hidden <= 0 {
		return nil, fmt.Errorf("textclf: sizes must be positive (hashD=%d dim=%d hidden=%d)", hashD, dim, hidden)
	}
	seed := uint64(1469598103934665603)
	for i := 0; i < len(name); i++ {
		seed ^= uint64(name[i])
		seed *= 1099511628211
	}
	r := xrand.New(seed)
	m := &Model{name: name, hashD: hashD, dim: dim, hidden: hidden,
		emb: make([][]float64, hashD), rowRand: make([]xrand.Rand, hashD)}
	for b := range m.rowRand {
		m.rowRand[b] = *r
		r.SkipNorms(dim)
	}
	m.w1 = make([]float64, dim*hidden)
	scale := 1 / math.Sqrt(float64(dim))
	for i := range m.w1 {
		m.w1[i] = r.Norm() * scale
	}
	m.b1 = make([]float64, hidden)
	m.w2 = make([]float64, hidden)
	for i := range m.w2 {
		m.w2[i] = r.Norm() / math.Sqrt(float64(hidden))
	}
	m.x, m.dx = make([]float64, dim), make([]float64, dim)
	m.h, m.dh = make([]float64, hidden), make([]float64, hidden)
	return m, nil
}

// row returns embedding row b, drawing it the first time it is read.
func (m *Model) row(b int32) []float64 {
	if m.emb[b] == nil {
		row, r, scale := make([]float64, m.dim), m.rowRand[b], 0.5/math.Sqrt(float64(m.dim))
		for j := range row {
			row[j] = r.Norm() * scale
		}
		m.emb[b] = row
	}
	return m.emb[b]
}

// Name returns the checkpoint name.
func (m *Model) Name() string { return m.name }

// appendBuckets appends the rows of text's non-stopword tokens to doc,
// in order: the document as a model of table size hashD reads it.
func appendBuckets(doc []int32, text string, hashD int) []int32 {
	toks := textproc.Tokenize(text)
	doc = slices.Grow(doc, len(toks))
	for _, tok := range toks {
		if textproc.Stopwords[tok] {
			continue
		}
		h := uint32(2166136261)
		for i := 0; i < len(tok); i++ {
			h ^= uint32(tok[i])
			h *= 16777619
		}
		doc = append(doc, int32(int(h>>1)%hashD))
	}
	return doc
}

// encodeAll encodes each text once into one growing block; a document
// cut before the block regrew keeps the old array, never written again.
func encodeAll(texts []string, hashD int) [][]int32 {
	docs := make([][]int32, len(texts))
	var flat []int32
	for i, text := range texts {
		start := len(flat)
		flat = appendBuckets(flat, text, hashD)
		docs[i] = flat[start:len(flat):len(flat)]
	}
	return docs
}

// embed sets m.x to the mean embedding of doc's rows. Empty documents
// embed to zero.
func (m *Model) embed(doc []int32) {
	x := m.x
	clear(x)
	for _, b := range doc {
		for j, v := range m.row(b) {
			x[j] += v
		}
	}
	if len(doc) > 0 {
		inv := 1 / float64(len(doc))
		for j := range x {
			x[j] *= inv
		}
	}
}

// forward sets m.h to the hidden activations of m.x and returns the
// output probability.
func (m *Model) forward() float64 {
	for j := range m.h {
		s := m.b1[j]
		for i, v := range m.x {
			s += m.w1[i*m.hidden+j] * v
		}
		m.h[j] = 0
		if s > 0 {
			m.h[j] = s
		}
	}
	z := m.b2
	for j, v := range m.h {
		z += m.w2[j] * v
	}
	return stableSigmoid(z)
}

func stableSigmoid(z float64) float64 {
	if z >= 0 {
		return 1 / (1 + math.Exp(-z))
	}
	e := math.Exp(z)
	return e / (1 + e)
}

// Finetune trains the model on labeled texts with SGD backprop,
// updating the MLP and the touched embedding rows (true fine-tuning).
// Each text is tokenized once, not once per epoch.
func (m *Model) Finetune(texts []string, labels []bool, cfg Config) error {
	return m.finetune(encodeAll(texts, m.hashD), labels, cfg)
}

func (m *Model) finetune(docs [][]int32, labels []bool, cfg Config) error {
	if len(docs) == 0 {
		return fmt.Errorf("textclf: empty training set")
	}
	if len(docs) != len(labels) {
		return fmt.Errorf("textclf: %d texts, %d labels", len(docs), len(labels))
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
	idx := make([]int, len(docs))
	for i := range idx {
		idx[i] = i
	}
	for e := 0; e < epochs; e++ {
		r.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for _, i := range idx {
			m.step(docs[i], labels[i], lr)
		}
	}
	return nil
}

// step performs one SGD update.
func (m *Model) step(doc []int32, label bool, lr float64) {
	m.embed(doc)
	p := m.forward()
	x, h, dh, dx := m.x, m.h, m.dh, m.dx
	y := 0.0
	if label {
		y = 1.0
	}
	dz := p - y

	// Output layer.
	for j := range h {
		dh[j] = 0
		if h[j] > 0 {
			dh[j] = dz * m.w2[j]
		}
		m.w2[j] -= lr * dz * h[j]
	}
	m.b2 -= lr * dz

	// Hidden layer and input gradient.
	for i := range dx {
		dx[i] = 0
		w := m.w1[i*m.hidden : (i+1)*m.hidden]
		for j, g := range dh {
			if g != 0 {
				dx[i] += w[j] * g
				w[j] -= lr * g * x[i]
			}
		}
	}
	for j, g := range dh {
		m.b1[j] -= lr * g
	}

	// Embedding rows (mean pooling spreads the gradient).
	if len(doc) > 0 {
		inv := 1 / float64(len(doc))
		for _, b := range doc {
			row := m.row(b)
			for i := range row {
				row[i] -= lr * dx[i] * inv
			}
		}
	}
}

// Proba returns P(label=true) for a text.
func (m *Model) Proba(text string) float64 { return m.proba(appendBuckets(nil, text, m.hashD)) }

func (m *Model) proba(doc []int32) float64 {
	m.embed(doc)
	return m.forward()
}

// Predict thresholds Proba at 0.5.
func (m *Model) Predict(text string) bool { return m.Proba(text) >= 0.5 }

// Ensemble is a set of independently fine-tuned binary models used for
// multi-label classification — the WEF pipeline's four framing models.
type Ensemble struct {
	Labels []string
	Models []*Model
}

// NewEnsemble creates one pretrained model per label, concurrently.
func NewEnsemble(labels []string, hashD, dim, hidden int) (*Ensemble, error) {
	if len(labels) == 0 {
		return nil, fmt.Errorf("textclf: ensemble needs at least one label")
	}
	e := &Ensemble{Labels: append([]string(nil), labels...), Models: make([]*Model, len(labels))}
	errs := make([]error, len(labels))
	par.Do(len(labels), func(k int) {
		e.Models[k], errs[k] = Pretrained("bert-"+labels[k], hashD, dim, hidden)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return e, nil
}

// Finetune trains each model on its label column, the models
// concurrently. golds[i][k] is whether example i carries label k. A text
// is encoded once for all the models that share its table size.
func (e *Ensemble) Finetune(texts []string, golds [][]bool, cfg Config) error {
	for i := range texts {
		if len(golds[i]) != len(e.Models) {
			return fmt.Errorf("textclf: example %d has %d labels, ensemble has %d", i, len(golds[i]), len(e.Models))
		}
	}
	docs := e.encode(texts)
	errs := make([]error, len(e.Models))
	par.Do(len(e.Models), func(k int) {
		m := e.Models[k]
		col := make([]bool, len(texts))
		for i := range texts {
			col[i] = golds[i][k]
		}
		sub := cfg
		sub.Seed = cfg.Seed*31 + uint64(k)
		errs[k] = m.finetune(docs[m.hashD], col, sub)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// PredictAll returns model k's verdict on text i as out[i][k], the models
// run concurrently, each text encoded once per table size.
func (e *Ensemble) PredictAll(texts []string) [][]bool {
	docs := e.encode(texts)
	flat := make([]bool, len(texts)*len(e.Models))
	par.Do(len(e.Models), func(k int) {
		m := e.Models[k]
		for i, doc := range docs[m.hashD] {
			flat[i*len(e.Models)+k] = m.proba(doc) >= 0.5
		}
	})
	out := make([][]bool, len(texts))
	for i := range out {
		out[i] = flat[i*len(e.Models) : (i+1)*len(e.Models) : (i+1)*len(e.Models)]
	}
	return out
}

// encode encodes texts once per table size the models use.
func (e *Ensemble) encode(texts []string) map[int][][]int32 {
	docs := make(map[int][][]int32, 1)
	for _, m := range e.Models {
		if _, ok := docs[m.hashD]; !ok {
			docs[m.hashD] = encodeAll(texts, m.hashD)
		}
	}
	return docs
}
