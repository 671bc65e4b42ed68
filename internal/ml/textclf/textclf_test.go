package textclf

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/datagen"
	"repro/internal/xrand"
)

// framingData generates synthetic tweets where the label is decided by
// marker words, mimicking the WEF framings.
func framingData(n int, seed uint64) ([]string, []bool) {
	r := xrand.New(seed)
	pos := []string{"climate change caused this wildfire", "global warming fuels these fires", "carbon emissions made the fire season worse"}
	neg := []string{"traffic is closed near the fire", "sending support to firefighters", "smoke photos from my window"}
	fillers := []string{"today", "so sad", "please stay safe", "breaking", "again"}
	texts := make([]string, n)
	labels := make([]bool, n)
	for i := 0; i < n; i++ {
		labels[i] = r.Bool(0.5)
		base := xrand.Choice(r, neg)
		if labels[i] {
			base = xrand.Choice(r, pos)
		}
		texts[i] = base + " " + xrand.Choice(r, fillers)
	}
	return texts, labels
}

func TestPretrainedValidates(t *testing.T) {
	if _, err := Pretrained("x", 0, 8, 4); err == nil {
		t.Fatal("expected error for zero hashD")
	}
	if _, err := Pretrained("x", 64, 0, 4); err == nil {
		t.Fatal("expected error for zero dim")
	}
	if _, err := Pretrained("x", 64, 8, 0); err == nil {
		t.Fatal("expected error for zero hidden")
	}
}

func TestPretrainedDeterministicByName(t *testing.T) {
	a, _ := Pretrained("bert-base", 256, 16, 8)
	b, _ := Pretrained("bert-base", 256, 16, 8)
	c, _ := Pretrained("bert-other", 256, 16, 8)
	// b draws its rows in the opposite order: a row's values must not
	// depend on which rows were read before it.
	for _, row := range []int32{255, 0} {
		b.row(row)
	}
	for _, row := range []int32{0, 255} {
		ra, rb, rc := a.row(row), b.row(row), c.row(row)
		for j := range ra {
			if ra[j] != rb[j] {
				t.Fatalf("row %d: same name should give identical checkpoints", row)
			}
		}
		if ra[0] == rc[0] {
			t.Fatalf("row %d: different names should give different checkpoints", row)
		}
	}
	for i := range a.w1 {
		if a.w1[i] != b.w1[i] {
			t.Fatal("same name should give identical MLP weights")
		}
	}
}

func TestRowsDrawnOnlyWhenRead(t *testing.T) {
	m, _ := Pretrained("bert-link", 4096, 24, 12)
	drawn := func() int {
		n := 0
		for _, row := range m.emb {
			if row != nil {
				n++
			}
		}
		return n
	}
	if n := drawn(); n != 0 {
		t.Fatalf("Pretrained drew %d rows", n)
	}
	m.Proba("the wildfire smoke")
	if n := drawn(); n != 2 {
		t.Fatalf("a text of two non-stopword tokens drew %d rows", n)
	}
}

func TestFinetuneLearnsMarkers(t *testing.T) {
	texts, labels := framingData(600, 11)
	m, err := Pretrained("bert-framing", 4096, 24, 12)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Finetune(texts, labels, Config{Epochs: 8, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	testTexts, testLabels := framingData(200, 99)
	correct := 0
	for i, tx := range testTexts {
		if m.Predict(tx) == testLabels[i] {
			correct++
		}
	}
	acc := float64(correct) / float64(len(testTexts))
	if acc < 0.9 {
		t.Fatalf("fine-tuned accuracy = %v", acc)
	}
}

func TestFinetuneErrors(t *testing.T) {
	m, _ := Pretrained("x", 64, 8, 4)
	if err := m.Finetune(nil, nil, Config{}); err == nil {
		t.Fatal("expected empty-set error")
	}
	if err := m.Finetune([]string{"a"}, []bool{true, false}, Config{}); err == nil {
		t.Fatal("expected mismatch error")
	}
}

func TestProbaRangeAndEmptyText(t *testing.T) {
	m, _ := Pretrained("x", 64, 8, 4)
	for _, s := range []string{"", "hello world", "the the the"} {
		p := m.Proba(s)
		if p < 0 || p > 1 {
			t.Fatalf("proba(%q) = %v", s, p)
		}
	}
}

func TestEnsembleMultiLabel(t *testing.T) {
	labels := []string{"link", "action", "attribution", "irrelevant"}
	e, err := NewEnsemble(labels, 2048, 16, 8)
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(5)
	markers := []string{"climate link here", "take climate action", "blame climate change", "nothing relevant"}
	var texts []string
	var golds [][]bool
	for i := 0; i < 400; i++ {
		k := r.Intn(4)
		texts = append(texts, fmt.Sprintf("%s tweet %d", markers[k], i%7))
		row := make([]bool, 4)
		row[k] = true
		golds = append(golds, row)
	}
	if err := e.Finetune(texts, golds, Config{Epochs: 6, Seed: 21}); err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i, pred := range e.PredictAll(texts) {
		ok := true
		for k := range pred {
			if pred[k] != golds[i][k] {
				ok = false
			}
		}
		if ok {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(texts)); acc < 0.85 {
		t.Fatalf("ensemble exact-match accuracy = %v", acc)
	}
}

func TestEmptyEnsemble(t *testing.T) {
	var e Ensemble
	if err := e.Finetune([]string{"x"}, [][]bool{{}}, Config{}); err != nil {
		t.Fatal(err)
	}
	if got := e.PredictAll([]string{"x"}); len(got) != 1 || len(got[0]) != 0 {
		t.Fatalf("an ensemble with no models predicted %v", got)
	}
}

func TestEnsembleErrors(t *testing.T) {
	if _, err := NewEnsemble(nil, 64, 8, 4); err == nil {
		t.Fatal("expected error for no labels")
	}
	e, _ := NewEnsemble([]string{"a", "b"}, 64, 8, 4)
	if err := e.Finetune([]string{"x"}, [][]bool{{true}}, Config{}); err == nil {
		t.Fatal("expected ragged labels error")
	}
}

// TestMatchesReference fine-tunes the lazy, encode-once models and the
// eager reference on WEF's 200 tweets with WEF's sizes and schedule, and
// holds every probability to the reference's bits: on the tweets, and
// on texts training never saw.
func TestMatchesReference(t *testing.T) {
	probes := []string{"", "the of and a with", "zyzzyva quokka 42", "Climate change made this wildfire worse"}
	for _, seed := range []uint64{1, 13} {
		tweets := datagen.GenerateTweets(200, seed)
		texts, golds := datagen.Texts(tweets), labels(tweets)
		cut := len(texts) * 4 / 5
		cfg := Config{Epochs: 3, LR: 0.3, Seed: seed}

		ens, err := NewEnsemble(datagen.FramingNames, 4096, 24, 12)
		if err != nil {
			t.Fatal(err)
		}
		if err := ens.Finetune(texts[:cut], golds[:cut], cfg); err != nil {
			t.Fatal(err)
		}
		// The workflow paradigm fine-tunes one model alone.
		solo, _ := Pretrained("bert-"+datagen.FramingNames[0], 4096, 24, 12)
		soloLabels := make([]bool, cut)
		for i := range soloLabels {
			soloLabels[i] = golds[i][0]
		}
		if err := solo.Finetune(texts[:cut], soloLabels, Config{Epochs: 3, LR: 0.3, Seed: seed * 31}); err != nil {
			t.Fatal(err)
		}

		for k, m := range ens.Models {
			ref, _ := refPretrained("bert-"+datagen.FramingNames[k], 4096, 24, 12)
			col := make([]bool, cut)
			for i := range col {
				col[i] = golds[i][k]
			}
			if err := ref.Finetune(texts[:cut], col, Config{Epochs: 3, LR: 0.3, Seed: seed*31 + uint64(k)}); err != nil {
				t.Fatal(err)
			}
			all := append(append([]string(nil), texts...), probes...)
			preds := ens.PredictAll(all)
			for i, text := range all {
				want := math.Float64bits(ref.Proba(text))
				if got := math.Float64bits(m.Proba(text)); got != want {
					t.Fatalf("seed %d model %d: Proba(%q) bits %#x, reference %#x", seed, k, text, got, want)
				}
				if k == 0 {
					if got := math.Float64bits(solo.Proba(text)); got != want {
						t.Fatalf("seed %d: lone model Proba(%q) bits %#x, reference %#x", seed, text, got, want)
					}
				}
				if got := preds[i][k]; got != (ref.Proba(text) >= 0.5) {
					t.Fatalf("seed %d model %d: PredictAll on %q = %v", seed, k, text, got)
				}
			}
		}
	}
}

// labels returns the framing matrix of a tweet slice (rows are
// tweets, columns framings).
func labels(tweets []datagen.Tweet) [][]bool {
	out := make([][]bool, len(tweets))
	for i, t := range tweets {
		row := make([]bool, datagen.NumFramings)
		copy(row, t.Framings[:])
		out[i] = row
	}
	return out
}
