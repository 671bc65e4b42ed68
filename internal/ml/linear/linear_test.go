package linear

import (
	"math"
	"testing"

	"repro/internal/ml/feature"
	"repro/internal/xrand"
)

// separableData builds a linearly separable sparse dataset.
func separableData(n int, seed uint64) ([]feature.Vector, []bool) {
	r := xrand.New(seed)
	x := make([]feature.Vector, n)
	y := make([]bool, n)
	for i := 0; i < n; i++ {
		pos := r.Bool(0.5)
		v := make(feature.Vector)
		if pos {
			v[0] = 1 + r.Float64()
			v[1] = r.Float64() * 0.2
		} else {
			v[0] = r.Float64() * 0.2
			v[1] = 1 + r.Float64()
		}
		v[2+r.Intn(20)] = r.Float64() * 0.1 // noise feature
		x[i] = v
		y[i] = pos
	}
	return x, y
}

func TestFitSeparable(t *testing.T) {
	x, y := separableData(400, 1)
	c := &SGDClassifier{Epochs: 10, Seed: 7}
	if err := c.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	pred := c.PredictAll(x)
	m, err := Evaluate(pred, y)
	if err != nil {
		t.Fatal(err)
	}
	if m.Accuracy < 0.97 {
		t.Fatalf("train accuracy = %v on separable data", m.Accuracy)
	}
}

func TestFitGeneralizes(t *testing.T) {
	xTrain, yTrain := separableData(400, 2)
	xTest, yTest := separableData(200, 3)
	c := &SGDClassifier{Epochs: 10, Seed: 7}
	if err := c.Fit(xTrain, yTrain); err != nil {
		t.Fatal(err)
	}
	m, err := Evaluate(c.PredictAll(xTest), yTest)
	if err != nil {
		t.Fatal(err)
	}
	if m.Accuracy < 0.95 {
		t.Fatalf("test accuracy = %v", m.Accuracy)
	}
}

func TestFitErrors(t *testing.T) {
	c := &SGDClassifier{}
	if err := c.Fit(nil, nil); err == nil {
		t.Fatal("expected error for empty set")
	}
	if err := c.Fit([]feature.Vector{{0: 1}}, []bool{true, false}); err == nil {
		t.Fatal("expected error for length mismatch")
	}
}

func TestFitDeterministic(t *testing.T) {
	x, y := separableData(100, 4)
	a := &SGDClassifier{Epochs: 3, Seed: 9}
	b := &SGDClassifier{Epochs: 3, Seed: 9}
	a.Fit(x, y)
	b.Fit(x, y)
	for f, w := range a.w {
		if math.Abs(b.w[f]-w) > 1e-12 {
			t.Fatal("training not deterministic")
		}
	}
}

func TestPredictProbaRange(t *testing.T) {
	x, y := separableData(100, 5)
	c := &SGDClassifier{Epochs: 3}
	c.Fit(x, y)
	for _, v := range x {
		p := sigmoid(c.DecisionFunction(v))
		if p < 0 || p > 1 {
			t.Fatalf("probability %v out of range", p)
		}
		if (p >= 0.5) != c.Predict(v) {
			t.Fatal("Predict inconsistent with the probability")
		}
	}
}

func TestSigmoidStable(t *testing.T) {
	if s := sigmoid(1000); s != 1 {
		t.Fatalf("sigmoid(1000) = %v", s)
	}
	if s := sigmoid(-1000); s != 0 {
		t.Fatalf("sigmoid(-1000) = %v", s)
	}
	if math.Abs(sigmoid(0)-0.5) > 1e-12 {
		t.Fatal("sigmoid(0) != 0.5")
	}
}

func TestEvaluateCounts(t *testing.T) {
	pred := []bool{true, true, false, false, true}
	gold := []bool{true, false, false, true, true}
	m, err := Evaluate(pred, gold)
	if err != nil {
		t.Fatal(err)
	}
	if m.TP != 2 || m.FP != 1 || m.FN != 1 || m.TN != 1 {
		t.Fatalf("confusion = %+v", m)
	}
	if math.Abs(m.Accuracy-0.6) > 1e-12 {
		t.Fatalf("accuracy = %v", m.Accuracy)
	}
	if math.Abs(m.Precision-2.0/3) > 1e-12 || math.Abs(m.Recall-2.0/3) > 1e-12 {
		t.Fatalf("p/r = %v/%v", m.Precision, m.Recall)
	}
	if math.Abs(m.F1-2.0/3) > 1e-12 {
		t.Fatalf("f1 = %v", m.F1)
	}
}

func TestEvaluateErrors(t *testing.T) {
	if _, err := Evaluate([]bool{true}, []bool{}); err == nil {
		t.Fatal("expected length mismatch error")
	}
	if _, err := Evaluate(nil, nil); err == nil {
		t.Fatal("expected empty-set error")
	}
}

func TestEvaluateDegenerate(t *testing.T) {
	// All-negative predictions: precision undefined, reported as 0.
	m, err := Evaluate([]bool{false, false}, []bool{true, false})
	if err != nil {
		t.Fatal(err)
	}
	if m.Precision != 0 || m.F1 != 0 {
		t.Fatalf("degenerate metrics = %+v", m)
	}
}

func TestMacroF1(t *testing.T) {
	pred := [][]bool{{true, false}, {false, true}, {true, true}}
	gold := [][]bool{{true, false}, {false, false}, {true, true}}
	f1, err := MacroF1(pred, gold)
	if err != nil {
		t.Fatal(err)
	}
	// Label 0 is perfect (f1=1); label 1 has tp=1 fp=1 fn=0 -> f1=2/3.
	want := (1 + 2.0/3) / 2
	if math.Abs(f1-want) > 1e-12 {
		t.Fatalf("macro f1 = %v, want %v", f1, want)
	}
}

func TestMacroF1Errors(t *testing.T) {
	if _, err := MacroF1(nil, nil); err == nil {
		t.Fatal("expected empty error")
	}
	if _, err := MacroF1([][]bool{{true}}, [][]bool{}); err == nil {
		t.Fatal("expected mismatch error")
	}
	if _, err := MacroF1([][]bool{{true, false}, {true}}, [][]bool{{true, false}, {true, false}}); err == nil {
		t.Fatal("expected ragged matrix error")
	}
}
