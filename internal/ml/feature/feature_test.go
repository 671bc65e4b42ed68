package feature

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewHashingVectorizerValidates(t *testing.T) {
	if _, err := NewHashingVectorizer(0); err == nil {
		t.Fatal("expected error for zero dim")
	}
	if _, err := NewHashingVectorizer(1024); err != nil {
		t.Fatal(err)
	}
}

func TestTransformDeterministic(t *testing.T) {
	h, _ := NewHashingVectorizer(256)
	a := h.Transform("the cat sat on the mat")
	b := h.Transform("the cat sat on the mat")
	if len(a) != len(b) {
		t.Fatal("non-deterministic transform")
	}
	for i, x := range a {
		if b[i] != x {
			t.Fatal("non-deterministic transform values")
		}
	}
}

func TestTransformBucketsInRange(t *testing.T) {
	h, _ := NewHashingVectorizer(64)
	v := h.Transform("alpha beta gamma delta epsilon zeta eta theta iota kappa")
	for b := range v {
		if b < 0 || b >= 64 {
			t.Fatalf("bucket %d out of range", b)
		}
	}
}

func TestTransformStopwordsAndBigrams(t *testing.T) {
	plain, _ := NewHashingVectorizer(512)
	noStop := &HashingVectorizer{Dim: 512, DropStopwords: true}
	doc := "the cat and the dog"
	if len(noStop.Transform(doc)) >= len(plain.Transform(doc)) {
		t.Fatal("stopword removal should shrink the vector")
	}
	bigram := &HashingVectorizer{Dim: 512, Bigrams: true}
	if len(bigram.Transform("red green blue")) <= len(plain.Transform("red green blue")) {
		t.Fatal("bigrams should grow the vector")
	}
}

func TestVectorOps(t *testing.T) {
	a := Vector{0: 1, 1: 2}
	b := Vector{1: 3, 2: 5}
	if a.Dot(b) != 6 {
		t.Fatalf("dot = %v", a.Dot(b))
	}
	if b.Dot(a) != 6 {
		t.Fatal("dot not symmetric")
	}
	n := Vector{3: 3, 4: 4}.Norm()
	if math.Abs(n-5) > 1e-12 {
		t.Fatalf("norm = %v", n)
	}
	s := Vector{0: 2}
	s.Scale(3)
	if s[0] != 6 {
		t.Fatal("scale wrong")
	}
}

func TestTFIDF(t *testing.T) {
	h, _ := NewHashingVectorizer(1 << 16)
	docs := []string{
		"wildfire smoke covers the city",
		"wildfire evacuation ordered",
		"the city holds a festival",
	}
	counts := h.TransformAll(docs)
	tfidf := FitTFIDF(counts)
	out := tfidf.TransformAll(counts)
	for i, v := range out {
		if n := v.Norm(); math.Abs(n-1) > 1e-9 {
			t.Fatalf("doc %d norm = %v, want 1", i, n)
		}
	}
	// "wildfire" (2 docs) must get a lower idf than "festival" (1 doc).
	wb, _ := h.hashToken("wildfire")
	fb, _ := h.hashToken("festival")
	if tfidf.idf[wb] >= tfidf.idf[fb] {
		t.Fatalf("idf(wildfire)=%v should be < idf(festival)=%v", tfidf.idf[wb], tfidf.idf[fb])
	}
}

func TestTFIDFUnseenFeature(t *testing.T) {
	h, _ := NewHashingVectorizer(1 << 16)
	tfidf := FitTFIDF(h.TransformAll([]string{"alpha beta"}))
	out := tfidf.Transform(h.Transform("gamma"))
	if len(out) == 0 {
		t.Fatal("unseen tokens should still map to features")
	}
	if n := out.Norm(); math.Abs(n-1) > 1e-9 {
		t.Fatalf("norm = %v", n)
	}
}

func TestPropertyDotCommutes(t *testing.T) {
	f := func(ai, bi []uint8, av, bv []int8) bool {
		a, b := Vector{}, Vector{}
		for i := 0; i < len(ai) && i < len(av); i++ {
			a[int(ai[i])] = float64(av[i])
		}
		for i := 0; i < len(bi) && i < len(bv); i++ {
			b[int(bi[i])] = float64(bv[i])
		}
		return math.Abs(a.Dot(b)-b.Dot(a)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
