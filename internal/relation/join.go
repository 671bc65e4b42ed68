package relation

import (
	"fmt"
	"math"
	"slices"
)

// This file holds the shared machinery behind the equi-join variants:
// a JoinPlan (schema work done once, shared by every Joiner built from
// it), a typed, chained build index (one map per join, no
// canonical-string key allocation on the hot path, no allocation per
// key), and the Joiner, which separates the build phase
// from probing so streaming callers can build once and probe many
// batches. The index is built serially: a parallel hash join gets its
// parallelism from its operator's instances, each of which builds one
// index over its own partition.
//
// Determinism contract: output rows come in probe (left) order, with
// the matches of each probe row in build (right) order: each key's
// chain runs in build order.

// JoinPlan is the schema-derived part of an equi-join: key positions,
// the output schema and the LeftOuter padding. It is computed once and
// read-only, so every Joiner of one join operator, on any goroutine,
// can share it.
type JoinPlan struct {
	lk, rk   int
	rightPos []int
	out      *Schema
	padding  Tuple // zero values for unmatched LeftOuter rows
}

// PlanJoin resolves key positions and derives the output schema:
// left's fields followed by right's fields with the right key column
// dropped; right-side name collisions are prefixed with "r_".
func PlanJoin(left, right *Schema, leftKey, rightKey string) (*JoinPlan, error) {
	lk := left.IndexOf(leftKey)
	if lk < 0 {
		return nil, fmt.Errorf("relation: join: left key %q not found", leftKey)
	}
	rk := right.IndexOf(rightKey)
	if rk < 0 {
		return nil, fmt.Errorf("relation: join: right key %q not found", rightKey)
	}
	if lt, rt := left.Field(lk).Type, right.Field(rk).Type; lt != rt {
		return nil, fmt.Errorf("relation: join: key type mismatch %s vs %s", lt, rt)
	}
	rightNames := make([]string, 0, right.Len()-1)
	rightPos := make([]int, 0, right.Len()-1)
	for i := 0; i < right.Len(); i++ {
		if i == rk {
			continue
		}
		rightNames = append(rightNames, right.Field(i).Name)
		rightPos = append(rightPos, i)
	}
	rightProj, err := right.Project(rightNames...)
	if err != nil {
		return nil, err
	}
	out, err := left.Concat(rightProj, "r_")
	if err != nil {
		return nil, err
	}
	padding := make(Tuple, len(rightPos))
	for i, p := range rightPos {
		switch right.Field(p).Type {
		case Int:
			padding[i] = IntValue(0)
		case Float:
			padding[i] = FloatValue(0)
		case String:
			padding[i] = StringValue("")
		case Bool:
			padding[i] = BoolValue(false)
		}
	}
	return &JoinPlan{lk: lk, rk: rk, rightPos: rightPos, out: out, padding: padding}, nil
}

// keyIndex maps a probe row to the first build row sharing its key. The
// rest of the key's rows follow on the Joiner's next chain, in build
// order.
type keyIndex interface {
	insert(rows []Tuple, pos int, next []int32)
	head(row Tuple, pos int) int32
}

// typedIndex is the generic key index: one map from a key, in the
// column's native Go type, to its first build row, plus a lazily
// allocated canonical-string spill map for rows whose cell kind does
// not match the declared schema type (such rows can only ever match
// each other, exactly as under the canonical-key encoding the serial
// join used before). A map holds an int32 per key, so the index is a
// constant number of objects however many keys there are.
type typedIndex[K comparable] struct {
	get   func(Tuple, int) (K, bool)
	heads map[K]int32
	spill map[string]int32
}

// link makes build row i the head of its key's chain. Rows are linked
// in descending order, so each chain runs in build order.
func link[K comparable](m map[K]int32, k K, i int32, next []int32) {
	if h, ok := m[k]; ok {
		next[i] = h
	} else {
		next[i] = -1
	}
	m[k] = i
}

func (ix *typedIndex[K]) insert(rows []Tuple, pos int, next []int32) {
	ix.heads = make(map[K]int32, len(rows))
	for i := len(rows) - 1; i >= 0; i-- {
		if k, ok := ix.get(rows[i], pos); ok {
			link(ix.heads, k, int32(i), next)
			continue
		}
		if ix.spill == nil {
			ix.spill = make(map[string]int32)
		}
		link(ix.spill, rows[i].Key(pos), int32(i), next)
	}
}

func (ix *typedIndex[K]) head(row Tuple, pos int) int32 {
	k, ok := ix.get(row, pos)
	if !ok {
		if h, ok := ix.spill[row.Key(pos)]; ok {
			return h
		}
		return -1
	}
	if h, ok := ix.heads[k]; ok {
		return h
	}
	return -1
}

// newKeyIndex picks the typed index for the declared key type. A Float
// key is its canonical bits — every NaN one value, -0 and +0 two — the
// equivalence Tuple.Key, KeyHash, GroupBy and hash edges use, so a
// Float join agrees with the NestedLoopJoin oracle.
func newKeyIndex(t Type) keyIndex {
	switch t {
	case Int:
		return &typedIndex[int64]{
			get: func(r Tuple, p int) (int64, bool) { return int64(r[p].n), r[p].Kind() == Int },
		}
	case Float:
		return &typedIndex[uint64]{
			get: func(r Tuple, p int) (uint64, bool) {
				return canonFloatBits(math.Float64frombits(r[p].n)), r[p].Kind() == Float
			},
		}
	case Bool:
		return &typedIndex[bool]{
			get: func(r Tuple, p int) (bool, bool) { return r[p].n != 0, r[p].Kind() == Bool },
		}
	default:
		return &typedIndex[string]{
			get: func(r Tuple, p int) (string, bool) {
				if r[p].Kind() != String {
					return "", false
				}
				return r[p].Str(), true
			},
		}
	}
}

// Joiner is a reusable equi-join with the build phase done up front:
// construct it once over the build (right) side, then probe whole
// tables or successive row batches. Streaming callers (the dataflow
// hash-join operator) avoid rebuilding the hash table per batch. The
// build side is a chained index: the key maps give each key's first
// row and next gives, per build row, the next row with its key (-1
// ends the chain). A Joiner is read-only once built.
type Joiner struct {
	plan  *JoinPlan
	kind  JoinType
	ix    keyIndex
	next  []int32
	build []Tuple
}

// Schema returns the join output schema.
func (p *JoinPlan) Schema() *Schema { return p.out }

// NewJoiner builds the hash index over the right (build) table for
// probes whose rows follow leftSchema, serially, on the calling
// goroutine.
func NewJoiner(leftSchema *Schema, right *Table, leftKey, rightKey string, kind JoinType) (*Joiner, error) {
	plan, err := PlanJoin(leftSchema, right.Schema(), leftKey, rightKey)
	if err != nil {
		return nil, err
	}
	return plan.NewJoiner(right, kind), nil
}

// NewJoiner builds the hash index over right, whose rows follow the
// right schema p was planned for, serially, on the calling goroutine.
func (p *JoinPlan) NewJoiner(right *Table, kind JoinType) *Joiner {
	ix := newKeyIndex(right.Schema().Field(p.rk).Type)
	next := make([]int32, right.Len())
	ix.insert(right.Rows(), p.rk, next)
	return &Joiner{plan: p, kind: kind, ix: ix, next: next, build: right.Rows()}
}

// OutputSchema returns the join output schema.
func (j *Joiner) OutputSchema() *Schema { return j.plan.out }

// padded stands in a chain for the padding an unmatched LeftOuter probe
// row is joined with: that row's only candidate, so it ends the chain.
const padded = -2

// after returns the candidate that follows r in its chain, or -1.
func (j *Joiner) after(r int32) int32 {
	if r == padded {
		return -1
	}
	return j.next[r]
}

// fill writes probe row l joined with build row r, or with the LeftOuter
// padding when r is padded, into row.
func (j *Joiner) fill(row, l Tuple, r int32) {
	joined := row[copy(row, l):]
	if r == padded {
		copy(joined, j.plan.padding)
		return
	}
	b := j.build[r]
	for k, p := range j.plan.rightPos {
		joined[k] = b[p]
	}
}

// ProbeRows joins a batch of probe rows against the built side and
// returns the output rows, in probe order, as one batch of out. heads
// is the caller's scratch (one chain head per probe row): pass what the
// previous call returned, or nil, and keep the second result for the
// next call.
//
// A nil keep builds every joined row. Otherwise only the rows keep
// accepts are built: each candidate is first assembled in a scratch row
// that out keeps across calls and judged there, and a rejected one is
// counted in dropped, with its EncodedSize in droppedBytes, and never
// carved. keep sees rows in the output schema's order and must not
// retain them.
//
// Each chain is walked twice, three times under keep: once to count the
// batch's candidate rows and cells, once to judge them, and once to
// emit the kept ones into storage out reserves in one go.
func (j *Joiner) ProbeRows(out *Arena, heads []int32, rows []Tuple, keep Predicate) (batch []Tuple, _ []int32, dropped int, droppedBytes int64) {
	heads = slices.Grow(heads[:0], len(rows))[:len(rows)]
	right := len(j.plan.rightPos)
	n, cells := 0, 0
	for i, l := range rows {
		h := j.ix.head(l, j.plan.lk)
		if h < 0 && j.kind == LeftOuter {
			h = padded
		}
		heads[i] = h
		for r := h; r != -1; r = j.after(r) {
			n++
			cells += len(l) + right
		}
	}
	if keep != nil {
		n, cells, dropped, droppedBytes = j.judge(out, heads, rows, keep, n)
	}
	out.Reserve(n, cells)
	c := 0
	for i, l := range rows {
		for r := heads[i]; r != -1; r = j.after(r) {
			if keep == nil || out.kept[c] {
				j.fill(out.Row(len(l)+right), l, r)
			}
			c++
		}
	}
	return out.Batch(), heads, dropped, droppedBytes
}

// judge assembles each of the batch's candidate rows in out's scratch
// row, records keep's verdict on it in out.kept, and returns the count
// and cells of the kept candidates and the count and encoded bytes of
// the rejected ones.
func (j *Joiner) judge(out *Arena, heads []int32, rows []Tuple, keep Predicate, candidates int) (n, cells, dropped int, droppedBytes int64) {
	out.kept = slices.Grow(out.kept[:0], candidates)
	for i, l := range rows {
		w := len(l) + len(j.plan.rightPos)
		if cap(out.scratch) < w {
			out.scratch = make(Tuple, w)
		}
		row := out.scratch[:w]
		for r := heads[i]; r != -1; r = j.after(r) {
			j.fill(row, l, r)
			ok := keep(row)
			out.kept = append(out.kept, ok)
			if ok {
				n++
				cells += w
			} else {
				dropped++
				droppedBytes += EncodedSize(row)
			}
		}
	}
	return n, cells, dropped, droppedBytes
}

// Probe joins an entire probe table.
func (j *Joiner) Probe(left *Table) *Table {
	kstats.join.Add(1)
	out := NewTable(j.plan.out)
	out.rows, _, _, _ = j.ProbeRows(&Arena{}, nil, left.Rows(), nil)
	return out
}
