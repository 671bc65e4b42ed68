package kge

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/xrand"
)

// trainingWorld builds a small graph where each user purchases
// products from one category; the model should learn to rank
// same-category products higher.
func trainingWorld() (entities, relations []string, triples []Triple) {
	for u := 0; u < 8; u++ {
		entities = append(entities, fmt.Sprintf("user%d", u))
	}
	for p := 0; p < 40; p++ {
		entities = append(entities, fmt.Sprintf("prod%d", p))
	}
	relations = []string{"buys"}
	for u := 0; u < 8; u++ {
		cat := u % 4
		for p := 0; p < 40; p++ {
			if p%4 == cat {
				triples = append(triples, Triple{
					Head: fmt.Sprintf("user%d", u),
					Rel:  "buys",
					Tail: fmt.Sprintf("prod%d", p),
				})
			}
		}
	}
	return
}

func trainedModel(t *testing.T) *Model {
	t.Helper()
	ents, rels, triples := trainingWorld()
	m, err := New(ents, rels, 16, 42)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Train(triples, TrainConfig{Epochs: 80, Seed: 7, Negatives: 2}); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewValidates(t *testing.T) {
	if _, err := New(nil, []string{"r"}, 8, 1); err == nil {
		t.Fatal("expected error for no entities")
	}
	if _, err := New([]string{"e"}, nil, 8, 1); err == nil {
		t.Fatal("expected error for no relations")
	}
	if _, err := New([]string{"e"}, []string{"r"}, 0, 1); err == nil {
		t.Fatal("expected error for zero dim")
	}
	if _, err := New([]string{"e", "e"}, []string{"r"}, 8, 1); err == nil {
		t.Fatal("expected error for duplicate entity")
	}
	if _, err := New([]string{"e"}, []string{"r", "r"}, 8, 1); err == nil {
		t.Fatal("expected error for duplicate relation")
	}
}

func TestScoreErrors(t *testing.T) {
	m, _ := New([]string{"a", "b"}, []string{"r"}, 8, 1)
	if _, err := m.Score("zz", "r", "b"); err == nil {
		t.Fatal("expected unknown head error")
	}
	if _, err := m.Score("a", "zz", "b"); err == nil {
		t.Fatal("expected unknown relation error")
	}
	if _, err := m.Score("a", "r", "zz"); err == nil {
		t.Fatal("expected unknown tail error")
	}
}

func TestTrainSeparatesPositives(t *testing.T) {
	m := trainedModel(t)
	r := xrand.New(3)
	better := 0
	total := 0
	for u := 0; u < 8; u++ {
		cat := u % 4
		user := fmt.Sprintf("user%d", u)
		for trial := 0; trial < 20; trial++ {
			pos := fmt.Sprintf("prod%d", cat+4*r.Intn(10))
			negP := r.Intn(40)
			if negP%4 == cat {
				continue
			}
			neg := fmt.Sprintf("prod%d", negP)
			sp, err := m.Score(user, "buys", pos)
			if err != nil {
				t.Fatal(err)
			}
			sn, err := m.Score(user, "buys", neg)
			if err != nil {
				t.Fatal(err)
			}
			total++
			if sp > sn {
				better++
			}
		}
	}
	if ratio := float64(better) / float64(total); ratio < 0.9 {
		t.Fatalf("positive-over-negative ratio = %v", ratio)
	}
}

func TestTopKOrderingAndDeterminism(t *testing.T) {
	m := trainedModel(t)
	var candidates []string
	for p := 0; p < 40; p++ {
		candidates = append(candidates, fmt.Sprintf("prod%d", p))
	}
	top := topK(t, m, "user0", "buys", candidates, 10)
	if len(top) != 10 {
		t.Fatalf("topk len = %d", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i].Score > top[i-1].Score {
			t.Fatal("topk not sorted")
		}
	}
	// Majority of top-10 should be user0's category (p % 4 == 0).
	inCat := 0
	for _, s := range top {
		var p int
		fmt.Sscanf(s.Entity, "prod%d", &p)
		if p%4 == 0 {
			inCat++
		}
	}
	if inCat < 7 {
		t.Fatalf("only %d of top-10 in user's category", inCat)
	}
	top2 := topK(t, m, "user0", "buys", candidates, 10)
	for i := range top {
		if top[i] != top2[i] {
			t.Fatal("Top not deterministic")
		}
	}
}

// TestTopKErrors: a Top of k <= 0 keeps nothing and one of k past the
// items offered keeps them all, and both count every offer.
func TestTopKErrors(t *testing.T) {
	for _, c := range []struct{ k, kept int }{{0, 0}, {-1, 0}, {5, 1}} {
		top := NewTop(c.k, byScore)
		top.Offer(Scored{Entity: "a", Score: 1})
		if got := top.Sorted(); len(got) != c.kept || top.Seen() != 1 {
			t.Fatalf("k=%d: kept %v of %d seen, want %d kept of 1", c.k, got, top.Seen(), c.kept)
		}
	}
}

func TestEmbeddingAndReverseLookup(t *testing.T) {
	m := trainedModel(t)
	for _, e := range []string{"user3", "prod17"} {
		v, err := m.Embedding(e)
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.ReverseLookup(v)
		if err != nil {
			t.Fatal(err)
		}
		if got != e {
			t.Fatalf("reverse lookup of %q gave %q", e, got)
		}
	}
	if _, err := m.Embedding("missing"); err == nil {
		t.Fatal("expected unknown entity error")
	}
	if _, err := m.ReverseLookup(make([]float64, 3)); err == nil {
		t.Fatal("expected dim mismatch error")
	}
}

func TestEmbeddingReturnsCopy(t *testing.T) {
	m, _ := New([]string{"a"}, []string{"r"}, 4, 1)
	v, _ := m.Embedding("a")
	v[0] = 999
	v2, _ := m.Embedding("a")
	if v2[0] == 999 {
		t.Fatal("Embedding exposed internal storage")
	}
}

// Row is the table row itself, clipped so an append cannot reach the
// next entity's row.
func TestRowIsClippedView(t *testing.T) {
	m, _ := New([]string{"a", "b"}, []string{"r"}, 4, 1)
	a, err := m.Row("a")
	if err != nil {
		t.Fatal(err)
	}
	want, _ := m.Embedding("a")
	if !slices.Equal(a, want) {
		t.Fatalf("Row = %v, Embedding = %v", a, want)
	}
	if cap(a) != len(a) {
		t.Fatalf("Row has cap %d beyond its %d elements", cap(a), len(a))
	}
	next, _ := m.Embedding("b")
	_ = append(a, 999)
	if b, _ := m.Row("b"); !slices.Equal(b, next) {
		t.Fatalf("append to row a overwrote row b: %v, was %v", b, next)
	}
	if _, err := m.Row("missing"); err == nil {
		t.Fatal("expected unknown entity error")
	}
}

func TestTrainErrors(t *testing.T) {
	m, _ := New([]string{"a", "b"}, []string{"r"}, 4, 1)
	if err := m.Train(nil, TrainConfig{}); err == nil {
		t.Fatal("expected empty-set error")
	}
	if err := m.Train([]Triple{{Head: "zz", Rel: "r", Tail: "a"}}, TrainConfig{}); err == nil {
		t.Fatal("expected unknown head error")
	}
	if err := m.Train([]Triple{{Head: "a", Rel: "zz", Tail: "b"}}, TrainConfig{}); err == nil {
		t.Fatal("expected unknown relation error")
	}
	if err := m.Train([]Triple{{Head: "a", Rel: "r", Tail: "zz"}}, TrainConfig{}); err == nil {
		t.Fatal("expected unknown tail error")
	}
}

func TestSizeBytesFloor(t *testing.T) {
	m, _ := New([]string{"a"}, []string{"r"}, 4, 1)
	if m.SizeBytes() != 375<<20 {
		t.Fatalf("small model should report the paper's 375 MB floor, got %d", m.SizeBytes())
	}
}

func TestEmbeddingsStayBounded(t *testing.T) {
	m := trainedModel(t)
	for i, e := range m.ent {
		var n float64
		for _, x := range e {
			n += x * x
		}
		if math.Sqrt(n) > 1+1e-9 {
			t.Fatalf("entity %d norm = %v exceeds 1", i, math.Sqrt(n))
		}
	}
}

// topK ranks candidate tails for (head, rel) the way both KGE
// paradigms rank: each scored, the k best kept by a Top under byScore.
func topK(t *testing.T, m *Model, head, rel string, candidates []string, k int) []Scored {
	t.Helper()
	top := NewTop(min(k, len(candidates)), byScore)
	for _, c := range candidates {
		s, err := m.Score(head, rel, c)
		if err != nil {
			t.Fatal(err)
		}
		top.Offer(Scored{Entity: c, Score: s})
	}
	return top.Sorted()
}

// Score returns -||h + r - t||_2: higher is more plausible.
func (m *Model) Score(head, rel, tail string) (float64, error) {
	hi, ok := m.entIndex[head]
	if !ok {
		return 0, fmt.Errorf("kge: unknown head %q", head)
	}
	ri, ok := m.relIndex[rel]
	if !ok {
		return 0, fmt.Errorf("kge: unknown relation %q", rel)
	}
	ti, ok := m.entIndex[tail]
	if !ok {
		return 0, fmt.Errorf("kge: unknown tail %q", tail)
	}
	return -dist(m.ent[hi], m.rel[ri], m.ent[ti]), nil
}

// Scored pairs an entity with its plausibility score.
type Scored struct {
	Entity string
	Score  float64
}

// byScore orders ranked candidates: higher score first, ties by entity.
func byScore(a, b Scored) int {
	if c := cmp.Compare(b.Score, a.Score); c != 0 {
		return c
	}
	return strings.Compare(a.Entity, b.Entity)
}
