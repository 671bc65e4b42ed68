// Package linear implements logistic regression trained with
// stochastic gradient descent, plus the binary and multi-label
// classification metrics the evaluation tasks report. It is the
// SGDClassifier of the paper's Figure 1 pipeline.
package linear

import (
	"fmt"
	"math"

	"repro/internal/ml/feature"
	"repro/internal/xrand"
)

// SGDClassifier is a binary logistic-regression model.
type SGDClassifier struct {
	// Epochs is the number of passes over the data (default 5 when
	// zero).
	Epochs int
	// Seed drives example shuffling.
	Seed uint64

	w feature.Vector
	b float64
}

// sigmoid is the logistic function.
func sigmoid(z float64) float64 {
	if z >= 0 {
		e := math.Exp(-z)
		return 1 / (1 + e)
	}
	e := math.Exp(z)
	return e / (1 + e)
}

// Fit trains on sparse vectors with boolean labels. It returns an
// error on empty or mismatched input.
func (c *SGDClassifier) Fit(x []feature.Vector, y []bool) error {
	if len(x) == 0 {
		return fmt.Errorf("linear: empty training set")
	}
	if len(x) != len(y) {
		return fmt.Errorf("linear: %d examples, %d labels", len(x), len(y))
	}
	const lr, l2 = 0.1, 1e-4 // learning rate and ridge penalty
	epochs := c.Epochs
	if epochs == 0 {
		epochs = 5
	}
	c.w = make(feature.Vector)
	c.b = 0
	r := xrand.New(c.Seed)
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	for e := 0; e < epochs; e++ {
		r.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for _, i := range idx {
			target := 0.0
			if y[i] {
				target = 1.0
			}
			p := sigmoid(c.w.Dot(x[i]) + c.b)
			g := p - target
			// L2 shrink applied lazily only to touched features keeps
			// the update sparse.
			for f, v := range x[i] {
				c.w[f] -= lr * (g*v + l2*c.w[f])
			}
			c.b -= lr * g
		}
	}
	return nil
}

// DecisionFunction returns the raw margin for one example.
func (c *SGDClassifier) DecisionFunction(x feature.Vector) float64 {
	return c.w.Dot(x) + c.b
}

// Predict returns the thresholded label.
func (c *SGDClassifier) Predict(x feature.Vector) bool {
	return c.DecisionFunction(x) >= 0
}

// PredictAll predicts a batch.
func (c *SGDClassifier) PredictAll(x []feature.Vector) []bool {
	out := make([]bool, len(x))
	for i, v := range x {
		out[i] = c.Predict(v)
	}
	return out
}

// Metrics holds binary classification quality numbers.
type Metrics struct {
	Accuracy  float64
	Precision float64
	Recall    float64
	F1        float64
	TP        int
	FP        int
	TN        int
	FN        int
}

// Evaluate computes metrics of predictions against gold labels.
func Evaluate(pred, gold []bool) (Metrics, error) {
	if len(pred) != len(gold) {
		return Metrics{}, fmt.Errorf("linear: %d predictions, %d labels", len(pred), len(gold))
	}
	if len(pred) == 0 {
		return Metrics{}, fmt.Errorf("linear: empty evaluation set")
	}
	var m Metrics
	for i := range pred {
		switch {
		case pred[i] && gold[i]:
			m.TP++
		case pred[i] && !gold[i]:
			m.FP++
		case !pred[i] && gold[i]:
			m.FN++
		default:
			m.TN++
		}
	}
	m.Accuracy = float64(m.TP+m.TN) / float64(len(pred))
	if m.TP+m.FP > 0 {
		m.Precision = float64(m.TP) / float64(m.TP+m.FP)
	}
	if m.TP+m.FN > 0 {
		m.Recall = float64(m.TP) / float64(m.TP+m.FN)
	}
	if m.Precision+m.Recall > 0 {
		m.F1 = 2 * m.Precision * m.Recall / (m.Precision + m.Recall)
	}
	return m, nil
}

// MacroF1 averages F1 across the label columns of a multi-label
// problem (rows are examples).
func MacroF1(pred, gold [][]bool) (float64, error) {
	if len(pred) != len(gold) {
		return 0, fmt.Errorf("linear: %d predictions, %d labels", len(pred), len(gold))
	}
	if len(pred) == 0 {
		return 0, fmt.Errorf("linear: empty evaluation set")
	}
	labels := len(gold[0])
	var sum float64
	for l := 0; l < labels; l++ {
		p := make([]bool, len(pred))
		g := make([]bool, len(gold))
		for i := range pred {
			if len(pred[i]) != labels || len(gold[i]) != labels {
				return 0, fmt.Errorf("linear: ragged multi-label matrix at row %d", i)
			}
			p[i] = pred[i][l]
			g[i] = gold[i][l]
		}
		m, err := Evaluate(p, g)
		if err != nil {
			return 0, err
		}
		sum += m.F1
	}
	return sum / float64(labels), nil
}
