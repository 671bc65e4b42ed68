// Package kge implements TransE-style knowledge-graph embeddings: an
// embedding table over entities and relations, margin-based training
// with negative sampling, triple scoring, top-k candidate ranking and
// reverse lookup from an embedding back to its entity. It is the
// substrate of the KGE multi-step inference task (the paper's
// Figure 7); the pre-trained Amazon model's 375 MB footprint is carried
// as a size constant for the cost model.
package kge

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/par"
	"repro/internal/xrand"
)

// Triple is one (head, relation, tail) fact.
type Triple struct {
	Head, Rel, Tail string
}

// Model holds entity and relation embeddings.
type Model struct {
	Dim int

	entIndex map[string]int
	entNames []string
	ent      [][]float64

	relIndex map[string]int
	relNames []string
	rel      [][]float64
}

// New creates a model with random unit-ball embeddings for the given
// entities and relations.
func New(entities, relations []string, dim int, seed uint64) (*Model, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("kge: dimension must be positive, got %d", dim)
	}
	if len(entities) == 0 || len(relations) == 0 {
		return nil, fmt.Errorf("kge: need at least one entity and one relation")
	}
	m := &Model{
		Dim:      dim,
		entIndex: make(map[string]int, len(entities)),
		entNames: make([]string, 0, len(entities)),
		ent:      make([][]float64, 0, len(entities)),
		relIndex: make(map[string]int, len(relations)),
	}
	block := make([]float64, len(entities)*dim)
	for _, e := range entities {
		if _, dup := m.entIndex[e]; dup {
			return nil, fmt.Errorf("kge: duplicate entity %q", e)
		}
		i := len(m.entNames)
		m.entIndex[e] = i
		m.entNames = append(m.entNames, e)
		m.ent = append(m.ent, block[i*dim:(i+1)*dim:(i+1)*dim])
	}
	r := xrand.New(seed)
	drawUnits(r, m.ent)
	for _, rl := range relations {
		if _, dup := m.relIndex[rl]; dup {
			return nil, fmt.Errorf("kge: duplicate relation %q", rl)
		}
		m.relIndex[rl] = len(m.relNames)
		m.relNames = append(m.relNames, rl)
		m.rel = append(m.rel, randUnit(r, make([]float64, dim)))
	}
	return m, nil
}

// drawUnits fills each row with a random unit vector, bit for bit as
// randUnit over the rows in order, and leaves r where that loop would.
// Parts of drawPart rows are drawn on par.Do, part p from where r would
// stand had no earlier Norm retried (two uniforms a Norm); a part whose
// start proves wrong, once the parts before it are known, is redrawn.
func drawUnits(r *xrand.Rand, rows [][]float64) {
	const drawPart = 512 // vectors a piece of work draws
	first, dim := *r, uint64(len(rows[0]))
	start := func(p int) xrand.Rand {
		s := first
		s.Jump(2 * dim * uint64(p*drawPart))
		return s
	}
	draw := func(p int, r xrand.Rand) xrand.Rand {
		for _, v := range rows[p*drawPart : min((p+1)*drawPart, len(rows))] {
			randUnit(&r, v)
		}
		return r
	}
	ends := make([]xrand.Rand, (len(rows)+drawPart-1)/drawPart)
	par.Do(len(ends), func(p int) { ends[p] = draw(p, start(p)) })
	for p := range ends {
		if start(p) != *r {
			ends[p] = draw(p, *r)
		}
		*r = ends[p]
	}
}

// randUnit fills v with a random unit vector and returns it.
func randUnit(r *xrand.Rand, v []float64) []float64 {
	var n float64
	for i := range v {
		v[i] = r.Norm()
		n += v[i] * v[i]
	}
	n = math.Sqrt(n)
	if n > 0 {
		for i := range v {
			v[i] /= n
		}
	}
	return v
}

// NumEntities returns the entity count.
func (m *Model) NumEntities() int { return len(m.entNames) }

// NumRelations returns the relation count.
func (m *Model) NumRelations() int { return len(m.relNames) }

// HasEntity reports whether the entity is known.
func (m *Model) HasEntity(e string) bool {
	_, ok := m.entIndex[e]
	return ok
}

// Embedding returns a copy of an entity's embedding.
func (m *Model) Embedding(entity string) ([]float64, error) {
	i, ok := m.entIndex[entity]
	if !ok {
		return nil, fmt.Errorf("kge: unknown entity %q", entity)
	}
	out := make([]float64, m.Dim)
	copy(out, m.ent[i])
	return out, nil
}

// Row returns an entity's embedding row in place, without copying. The
// view is read-only: the caller must not write through it, and Train
// moves it. Its capacity is clipped to its length, so an append copies
// instead of overwriting the next row.
func (m *Model) Row(entity string) ([]float64, error) {
	i, ok := m.entIndex[entity]
	if !ok {
		return nil, fmt.Errorf("kge: unknown entity %q", entity)
	}
	r := m.ent[i]
	return r[:len(r):len(r)], nil
}

// SizeBytes returns the simulated footprint of the embedding table,
// calibrated so the paper's Amazon model lands at 375 MB: real float64
// storage scaled to paper scale.
func (m *Model) SizeBytes() int64 {
	const paperBytes = 375 << 20
	// Paper-scale reference: ~1.2M entities at dim 400 in float32.
	real := int64((len(m.ent) + len(m.rel)) * m.Dim * 8)
	if real > paperBytes {
		return real
	}
	return paperBytes
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

func dist(h, r, t []float64) float64 {
	var s float64
	for i := range h {
		d := h[i] + r[i] - t[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// TrainConfig controls TransE training.
type TrainConfig struct {
	Epochs    int     // default 50
	LR        float64 // default 0.05
	Margin    float64 // default 1.0
	Negatives int     // corrupted samples per positive, default 1
	Seed      uint64
}

// Train fits the embeddings to the triples with margin ranking loss
// and tail-corruption negative sampling.
func (m *Model) Train(triples []Triple, cfg TrainConfig) error {
	if len(triples) == 0 {
		return fmt.Errorf("kge: empty training set")
	}
	epochs := cfg.Epochs
	if epochs == 0 {
		epochs = 50
	}
	lr := cfg.LR
	if lr == 0 {
		lr = 0.05
	}
	margin := cfg.Margin
	if margin == 0 {
		margin = 1.0
	}
	negs := cfg.Negatives
	if negs == 0 {
		negs = 1
	}
	type idxTriple struct{ h, r, t int }
	idx := make([]idxTriple, len(triples))
	for i, tr := range triples {
		h, ok := m.entIndex[tr.Head]
		if !ok {
			return fmt.Errorf("kge: triple %d: unknown head %q", i, tr.Head)
		}
		rl, ok := m.relIndex[tr.Rel]
		if !ok {
			return fmt.Errorf("kge: triple %d: unknown relation %q", i, tr.Rel)
		}
		t, ok := m.entIndex[tr.Tail]
		if !ok {
			return fmt.Errorf("kge: triple %d: unknown tail %q", i, tr.Tail)
		}
		idx[i] = idxTriple{h, rl, t}
	}
	r := xrand.New(cfg.Seed)
	order := make([]int, len(idx))
	for i := range order {
		order[i] = i
	}
	for e := 0; e < epochs; e++ {
		r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, oi := range order {
			tr := idx[oi]
			for n := 0; n < negs; n++ {
				corrupt := r.Intn(len(m.ent))
				if corrupt == tr.t {
					continue
				}
				m.marginStep(tr.h, tr.r, tr.t, corrupt, lr, margin)
			}
		}
	}
	return nil
}

// marginStep applies one margin-loss gradient step for a positive
// (h,r,t) against a corrupted tail t'.
func (m *Model) marginStep(h, r, t, tNeg int, lr, margin float64) {
	dPos := dist(m.ent[h], m.rel[r], m.ent[t])
	dNeg := dist(m.ent[h], m.rel[r], m.ent[tNeg])
	if dPos+margin <= dNeg {
		return // already satisfied
	}
	// Gradient of dPos - dNeg w.r.t. embeddings (L2 distance).
	eh, er, et, en := m.ent[h], m.rel[r], m.ent[t], m.ent[tNeg]
	for i := range eh {
		var gp, gn float64
		if dPos > 0 {
			gp = (eh[i] + er[i] - et[i]) / dPos
		}
		if dNeg > 0 {
			gn = (eh[i] + er[i] - en[i]) / dNeg
		}
		g := gp - gn
		eh[i] -= lr * g
		er[i] -= lr * g
		et[i] += lr * gp
		en[i] -= lr * gn
	}
	normalizeRow(eh)
	normalizeRow(et)
	normalizeRow(en)
}

func normalizeRow(v []float64) {
	var n float64
	for _, x := range v {
		n += x * x
	}
	n = math.Sqrt(n)
	if n > 1 {
		for i := range v {
			v[i] /= n
		}
	}
}

// Scored pairs an entity with its plausibility score.
type Scored struct {
	Entity string
	Score  float64
}

// TopK ranks candidate tail entities for (head, rel) and returns the k
// best, ties broken by entity name for determinism. It holds the k best
// seen so far, not every candidate.
func (m *Model) TopK(head, rel string, candidates []string, k int) ([]Scored, error) {
	if k <= 0 {
		return nil, fmt.Errorf("kge: k must be positive, got %d", k)
	}
	top := NewTop(min(k, len(candidates)), byScore)
	for _, c := range candidates {
		s, err := m.Score(head, rel, c)
		if err != nil {
			return nil, err
		}
		top.Offer(Scored{Entity: c, Score: s})
	}
	return top.Sorted(), nil
}

// byScore orders TopK's candidates: higher score first, ties by entity.
func byScore(a, b Scored) int {
	if c := cmp.Compare(b.Score, a.Score); c != 0 {
		return c
	}
	return strings.Compare(a.Entity, b.Entity)
}

// EncodeVec serializes an embedding into a compact string so vectors
// can travel through relational tuples between workflow operators —
// which is how the real data volume of the KGE embedding join shows up
// in the engines' serde accounting. It is AppendVec into a fresh buffer.
func EncodeVec(v []float64) string {
	return string(AppendVec(make([]byte, 0, 8*len(v)), v))
}

// AppendVec appends v's encoding to dst and returns the extended
// buffer: each element's IEEE 754 bits, eight bytes, least significant
// first. An operator that encodes many vectors appends them all to one
// buffer and converts it to a string once.
func AppendVec(dst []byte, v []float64) []byte {
	for _, x := range v {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
	}
	return dst
}

// DecodeVec parses a string produced by EncodeVec into a new slice.
func DecodeVec(s string) ([]float64, error) {
	return DecodeVecInto(nil, s)
}

// DecodeVecInto parses a string produced by EncodeVec or AppendVec
// into dst's storage, growing it only when it is too short, and returns
// the decoded vector. Every bit pattern, NaN payloads and -0 included,
// comes back as it was encoded.
func DecodeVecInto(dst []float64, s string) ([]float64, error) {
	if len(s)%8 != 0 {
		return dst[:0], fmt.Errorf("kge: encoded vector length %d not a multiple of 8", len(s))
	}
	v := slices.Grow(dst[:0], len(s)/8)[:len(s)/8]
	for i := range v {
		var bits uint64
		for b := 0; b < 8; b++ {
			bits |= uint64(s[i*8+b]) << (8 * b)
		}
		v[i] = math.Float64frombits(bits)
	}
	return v, nil
}

// DistanceTo returns ||h + r - t||_2 given raw vectors — the scoring
// primitive workflow operators use on decoded embeddings.
func DistanceTo(head, rel, tail []float64) (float64, error) {
	if len(head) != len(rel) || len(head) != len(tail) {
		return 0, fmt.Errorf("kge: dimension mismatch (%d/%d/%d)", len(head), len(rel), len(tail))
	}
	return dist(head, rel, tail), nil
}

// RelationEmbedding returns a copy of a relation's embedding.
func (m *Model) RelationEmbedding(rel string) ([]float64, error) {
	i, ok := m.relIndex[rel]
	if !ok {
		return nil, fmt.Errorf("kge: unknown relation %q", rel)
	}
	out := make([]float64, m.Dim)
	copy(out, m.rel[i])
	return out, nil
}

// ReverseLookup returns the entity whose embedding is nearest (L2) to
// the query vector — the KGE task's final step mapping ranked
// embeddings back to product names.
func (m *Model) ReverseLookup(vec []float64) (string, error) {
	if len(vec) != m.Dim {
		return "", fmt.Errorf("kge: query dim %d, model dim %d", len(vec), m.Dim)
	}
	best := -1
	bestD := math.Inf(1)
	for i, e := range m.ent {
		var d float64
		for j := range e {
			x := e[j] - vec[j]
			d += x * x
		}
		if d < bestD || (d == bestD && best >= 0 && m.entNames[i] < m.entNames[best]) {
			bestD = d
			best = i
		}
	}
	return m.entNames[best], nil
}
