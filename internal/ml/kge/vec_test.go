package kge

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func TestEncodeDecodeVecRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 1 + r.Intn(32)
		v := make([]float64, n)
		for i := range v {
			v[i] = r.Norm() * 100
		}
		dec, err := DecodeVecInto(nil, string(AppendVec(nil, v)))
		if err != nil || len(dec) != n {
			return false
		}
		for i := range v {
			if dec[i] != v[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeVecRejectsBadLength(t *testing.T) {
	if _, err := DecodeVecInto(nil, "short"); err == nil {
		t.Fatal("expected error for non-multiple-of-8 length")
	}
	out, err := DecodeVecInto(nil, "")
	if err != nil || len(out) != 0 {
		t.Fatalf("empty vector should decode: %v %v", out, err)
	}
}

func TestEncodeVecSpecialValues(t *testing.T) {
	v := []float64{0, -0, math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64}
	dec, err := DecodeVecInto(nil, string(AppendVec(nil, v)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range v {
		if dec[i] != v[i] {
			t.Fatalf("value %d: %v != %v", i, dec[i], v[i])
		}
	}
	// NaN round-trips bit-exactly.
	nan, err := DecodeVecInto(nil, string(AppendVec(nil, []float64{math.NaN()})))
	if err != nil || !math.IsNaN(nan[0]) {
		t.Fatal("NaN did not round trip")
	}
}

// TestDistanceTo holds dist, the scoring primitive both paradigms use
// on decoded embeddings, to ||h + r - t||_2.
func TestDistanceTo(t *testing.T) {
	h := []float64{1, 0}
	r := []float64{0, 1}
	if d := dist(h, r, []float64{1, 1}); d != 0 {
		t.Fatalf("distance = %v, want 0", d)
	}
	if d := dist(h, r, []float64{1, 0}); d != 1 {
		t.Fatalf("distance = %v, want 1", d)
	}
}

func TestRelationEmbedding(t *testing.T) {
	m, _ := New([]string{"a"}, []string{"buys"}, 4, 1)
	v, err := m.RelationEmbedding("buys")
	if err != nil || len(v) != 4 {
		t.Fatalf("relation embedding: %v %v", v, err)
	}
	v[0] = 999
	v2, _ := m.RelationEmbedding("buys")
	if v2[0] == 999 {
		t.Fatal("RelationEmbedding exposed internal storage")
	}
	if _, err := m.RelationEmbedding("zz"); err == nil {
		t.Fatal("expected unknown relation error")
	}
}
