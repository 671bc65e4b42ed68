package relation

import (
	"fmt"
	"hash/maphash"
	"math/bits"
	"slices"
)

// This file holds the shared machinery behind the equi-join variants:
// a JoinPlan (schema work done once, shared by every Joiner built from
// it), a flat build index (one []int32 per join, no allocation per key
// or per row), and the Joiner, which separates the build phase
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
	padBytes int64 // the padding's encoded cell bytes
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
	return &JoinPlan{lk: lk, rk: rk, rightPos: rightPos, out: out, padding: padding, padBytes: cellBytes(padding)}, nil
}

// Joiner is a reusable equi-join with the build phase done up front:
// construct it once over the build (right) side, then probe whole
// tables or successive row batches. The build side is one flat
// open-addressing index in a single []int32: slots, a power-of-two
// table of more than twice the build rows holding each key's first row
// (-1 when empty; a key whose slot is taken goes to the next), next,
// per build row the next row with its key (-1 ends the chain), and
// size, per build row the encoded bytes of its cells but the key (under
// 2 GiB). Keys meet by equalValueCanon — every NaN one key, -0 and +0
// two, a mis-kinded cell only cells of its own kind, as in Tuple.Key —
// and take their slot from slotHash, never Tuple.KeyHash, which the
// keys of one hash edge's worker share. A Joiner is read-only once
// built.
type Joiner struct {
	plan  *JoinPlan
	kind  JoinType
	shift uint // 64 − log2(len(slots))
	slots []int32
	next  []int32
	size  []int32
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
	j := plan.Build(kind, right.Rows())
	return &j, nil
}

// Build indexes the build side, whose rows follow the right schema p
// was planned for, serially, on the calling goroutine. The rows come as
// the batches a stream delivered them in: a lone batch is indexed in
// place, several are copied once into one slice of exactly their rows.
// The Joiner keeps the rows, which must not be written while it is
// probed.
func (p *JoinPlan) Build(kind JoinType, batches ...[]Tuple) Joiner {
	j, n := Joiner{plan: p, kind: kind}, 0
	for _, b := range batches {
		n += len(b)
	}
	if len(batches) == 1 {
		j.build = batches[0]
	} else {
		j.build = make([]Tuple, 0, n)
		for _, b := range batches {
			j.build = append(j.build, b...)
		}
	}
	log := bits.Len(uint(2 * n))
	index := make([]int32, 1<<log+2*n)
	j.shift = uint(64 - log)
	j.slots, j.next, j.size = index[:1<<log], index[1<<log:1<<log+n], index[1<<log+n:]
	for i := range j.slots {
		j.slots[i] = -1
	}
	// Rows are linked in descending order, so each chain runs in build
	// order.
	for i := n - 1; i >= 0; i-- {
		row := j.build[i]
		s := j.slot(row[p.rk])
		j.next[i], j.slots[s] = j.slots[s], int32(i)
		j.size[i] = int32(cellBytes(row) - cellBytes(row[p.rk:p.rk+1]))
	}
	return j
}

// slotSeed seeds slotHash for strings. It moves keys between slots,
// never a row within its chain, so no output depends on it.
var slotSeed = maphash.MakeSeed()

// slotHash hashes a key's canonical form, so that keys equalValueCanon
// finds equal hash alike: a string's bytes through hash/maphash, and a
// number's canonFloatBits or bits (or a bool's) folded and multiplied so
// that the top bits see every bit. Keys of two kinds may collide.
func slotHash(key Value) uint64 {
	h := key.n
	switch key.Kind() {
	case String:
		return maphash.String(slotSeed, key.Str())
	case Float:
		h = canonFloatBits(key.Float())
	}
	return (h ^ h>>32) * 0x9e3779b97f4a7c15
}

// slot returns the slot holding the first build row with key, or the
// empty slot where that row would go.
func (j *Joiner) slot(key Value) uint64 {
	mask := uint64(len(j.slots) - 1)
	for s := slotHash(key) >> j.shift; ; s = (s + 1) & mask {
		if r := j.slots[s]; r < 0 || equalValueCanon(j.build[r][j.plan.rk], key) {
			return s
		}
	}
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
		h := j.slots[j.slot(l[j.plan.lk])]
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
// the rejected ones. A rejected row's bytes are counted, not walked:
// its header, its probe row's cell bytes (counted once per probe row)
// and the build row's, stored when it was indexed.
func (j *Joiner) judge(out *Arena, heads []int32, rows []Tuple, keep Predicate, candidates int) (n, cells, dropped int, droppedBytes int64) {
	out.kept = slices.Grow(out.kept[:0], candidates)
	for i, l := range rows {
		w := len(l) + len(j.plan.rightPos)
		if cap(out.scratch) < w {
			out.scratch = make(Tuple, w)
		}
		row := out.scratch[:w]
		probeBytes := int64(-1)
		for r := heads[i]; r != -1; r = j.after(r) {
			j.fill(row, l, r)
			ok := keep(row)
			out.kept = append(out.kept, ok)
			if ok {
				n++
				cells += w
				continue
			}
			if probeBytes < 0 {
				probeBytes = int64(uvarintLen(uint64(w))) + cellBytes(l)
			}
			dropped++
			droppedBytes += probeBytes
			if r == padded {
				droppedBytes += j.plan.padBytes
			} else {
				droppedBytes += int64(j.size[r])
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
