package textclf

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/datagen"
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

// refNewEnsemble, refFinetune and refPredict are NewEnsemble,
// Ensemble.Finetune and Ensemble.Predict as they were before the
// members were built, fine-tuned and run concurrently: one member after
// another, and Predict encoding one text per call. Kept verbatim as the
// reference the concurrent ensemble must reproduce bit for bit.

func refNewEnsemble(labels []string, hashD, dim, hidden int) (*Ensemble, error) {
	if len(labels) == 0 {
		return nil, fmt.Errorf("textclf: ensemble needs at least one label")
	}
	e := &Ensemble{Labels: append([]string(nil), labels...)}
	for _, l := range labels {
		m, err := Pretrained("bert-"+l, hashD, dim, hidden)
		if err != nil {
			return nil, err
		}
		e.Models = append(e.Models, m)
	}
	return e, nil
}

func (e *Ensemble) refFinetune(texts []string, golds [][]bool, cfg Config) error {
	docs := make(map[int][][]int32, 1)
	for k, m := range e.Models {
		col := make([]bool, len(texts))
		for i := range texts {
			if len(golds[i]) != len(e.Models) {
				return fmt.Errorf("textclf: example %d has %d labels, ensemble has %d", i, len(golds[i]), len(e.Models))
			}
			col[i] = golds[i][k]
		}
		d, ok := docs[m.hashD]
		if !ok {
			d = encodeAll(texts, m.hashD)
			docs[m.hashD] = d
		}
		sub := cfg
		sub.Seed = cfg.Seed*31 + uint64(k)
		if err := m.finetune(d, col, sub); err != nil {
			return err
		}
	}
	return nil
}

func (e *Ensemble) refPredict(text string) []bool {
	out := make([]bool, len(e.Models))
	docs := make(map[int][]int32, 1)
	for k, m := range e.Models {
		doc, ok := docs[m.hashD]
		if !ok {
			doc = appendBuckets(nil, text, m.hashD)
			docs[m.hashD] = doc
		}
		out[k] = m.proba(doc) >= 0.5
	}
	return out
}

// sameWeights reports the first difference between two models'
// parameters, bit for bit, embedding rows drawn or not included, or "".
func sameWeights(a, b *Model) string {
	vecs := func(m *Model) [][]float64 { return append([][]float64{m.w1, m.b1, m.w2, {m.b2}}, m.emb...) }
	va, vb := vecs(a), vecs(b)
	for i := range va {
		if (va[i] == nil) != (vb[i] == nil) || len(va[i]) != len(vb[i]) {
			return fmt.Sprintf("vector %d: lengths %d and %d", i, len(va[i]), len(vb[i]))
		}
		for j := range va[i] {
			if math.Float64bits(va[i][j]) != math.Float64bits(vb[i][j]) {
				return fmt.Sprintf("vector %d element %d: %v and %v", i, j, va[i][j], vb[i][j])
			}
		}
	}
	return ""
}

// TestEnsembleMatchesSerial builds, fine-tunes and runs WEF's ensemble
// concurrently and one member at a time, on WEF's tweets with its sizes
// and schedule, and wants every member's weights after fine-tuning
// (each embedding row drawn or not, and its bits) and every prediction
// equal, and the same errors.
func TestEnsembleMatchesSerial(t *testing.T) {
	probes := []string{"", "the of and a with", "zyzzyva quokka 42"}
	for _, seed := range []uint64{1, 13} {
		tweets := datagen.GenerateTweets(200, seed)
		texts, golds := datagen.Texts(tweets), labels(tweets)
		cut := len(texts) * 4 / 5
		cfg := Config{Epochs: 3, LR: 0.3, Seed: seed}
		got, err := NewEnsemble(datagen.FramingNames, 4096, 24, 12)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refNewEnsemble(datagen.FramingNames, 4096, 24, 12)
		if err != nil {
			t.Fatal(err)
		}
		for k := range want.Models {
			if diff := sameWeights(got.Models[k], want.Models[k]); diff != "" {
				t.Fatalf("seed %d model %d: pretrained %s", seed, k, diff)
			}
		}
		if err := got.Finetune(texts[:cut], golds[:cut], cfg); err != nil {
			t.Fatal(err)
		}
		if err := want.refFinetune(texts[:cut], golds[:cut], cfg); err != nil {
			t.Fatal(err)
		}
		for k := range want.Models {
			if diff := sameWeights(got.Models[k], want.Models[k]); diff != "" {
				t.Fatalf("seed %d model %d: fine-tuned %s", seed, k, diff)
			}
		}
		all := append(slices.Clone(texts), probes...)
		for i, p := range got.PredictAll(all) {
			if w := want.refPredict(all[i]); !slices.Equal(p, w) {
				t.Fatalf("seed %d: PredictAll on %q gave %v, reference %v", seed, all[i], p, w)
			}
		}
		for k := range want.Models {
			if diff := sameWeights(got.Models[k], want.Models[k]); diff != "" {
				t.Fatalf("seed %d model %d: after predicting, %s", seed, k, diff)
			}
		}
	}
	ragged := [][]bool{{true, false}, {true}}
	e, _ := NewEnsemble([]string{"a", "b"}, 64, 8, 4)
	r, _ := refNewEnsemble([]string{"a", "b"}, 64, 8, 4)
	for _, c := range []struct {
		texts []string
		golds [][]bool
	}{{[]string{"x", "y"}, ragged}, {nil, nil}} {
		err, wantErr := e.Finetune(c.texts, c.golds, Config{}), r.refFinetune(c.texts, c.golds, Config{})
		if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
			t.Fatalf("error %v, reference %v", err, wantErr)
		}
	}
	if _, err := NewEnsemble([]string{"a"}, 0, 8, 4); err == nil {
		t.Fatal("NewEnsemble took a zero table size")
	}
}
