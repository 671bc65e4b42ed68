package relation

import (
	"fmt"
	"math"
	"slices"
	"sync"
)

// This file holds the shared machinery behind the equi-join variants:
// a joinPlan (schema work done once), a typed, optionally
// hash-partitioned, chained build index (no canonical-string key
// allocation on the hot path, no allocation per key), and the Joiner,
// which separates the build phase from probing so streaming callers can
// build once and probe many batches.
//
// Determinism contract: output rows come in probe (left) order, with
// the matches of each probe row in build (right) order, regardless of
// shard count: the build side is hash-partitioned, so equal keys never
// split across shards, and each key's chain runs in build order.

// maxJoinShards bounds the partition fan-out; shard ids are stored in
// a byte with 255 reserved for rows whose key needs the spill path.
const maxJoinShards = 128

// joinPlan is the schema-derived part of a join, computed once.
type joinPlan struct {
	lk, rk   int
	rightPos []int
	out      *Schema
	padding  Tuple // zero values for unmatched LeftOuter rows
}

// planJoin resolves key positions and derives the output schema:
// left's fields followed by right's fields with the right key column
// dropped; right-side name collisions are prefixed with "r_".
func planJoin(left, right *Schema, leftKey, rightKey string) (*joinPlan, error) {
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
	return &joinPlan{lk: lk, rk: rk, rightPos: rightPos, out: out, padding: padding}, nil
}

// fnv32 hashes a string with FNV-1a; used to route spill keys and
// string keys to shards.
func fnv32(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// mix64 is a cheap multiplicative bit mixer for fixed-width keys.
func mix64(v uint64) uint32 {
	return uint32((v * 0x9E3779B97F4A7C15) >> 32)
}

// keyIndex maps a probe row to the first build row sharing its key. The
// rest of the key's rows follow on the Joiner's next chain, in build
// order.
type keyIndex interface {
	insert(rows []Tuple, pos, shards int, next []int32)
	head(row Tuple, pos int) int32
}

// typedIndex is the generic key index: one map per shard from a key,
// in the column's native Go type, to its first build row, plus a
// lazily allocated canonical-string spill map for rows whose cell kind
// does not match the declared schema type (such rows can only ever
// match each other, exactly as under the canonical-key encoding the
// serial join used before). A map holds an int32 per key, so the index
// is a constant number of objects however many keys there are.
type typedIndex[K comparable] struct {
	get   func(Tuple, int) (K, bool)
	hash  func(K) uint32
	heads []map[K]int32
	spill map[string]int32
}

func (ix *typedIndex[K]) shardOf(k K) uint32 {
	if len(ix.heads) == 1 {
		return 0
	}
	return ix.hash(k) % uint32(len(ix.heads))
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

func (ix *typedIndex[K]) insertSpill(row Tuple, pos int, i int32, next []int32) {
	if ix.spill == nil {
		ix.spill = make(map[string]int32)
	}
	link(ix.spill, row.Key(pos), i, next)
}

func (ix *typedIndex[K]) insert(rows []Tuple, pos, shards int, next []int32) {
	ix.heads = make([]map[K]int32, shards)
	sizeHint := len(rows)/shards + 1
	for s := range ix.heads {
		ix.heads[s] = make(map[K]int32, sizeHint)
	}
	if shards == 1 || len(rows) < 2*shards {
		for i := len(rows) - 1; i >= 0; i-- {
			k, ok := ix.get(rows[i], pos)
			if !ok {
				ix.insertSpill(rows[i], pos, int32(i), next)
				continue
			}
			link(ix.heads[ix.shardOf(k)], k, int32(i), next)
		}
		return
	}
	// Two-pass parallel build: pass 1 extracts keys and shard ids over
	// contiguous chunks, pass 2 lets each shard link its rows in
	// descending order (disjoint maps and disjoint next slots, no
	// locking).
	keys := make([]K, len(rows))
	shardOf := make([]uint8, len(rows))
	var wg sync.WaitGroup
	chunk := (len(rows) + shards - 1) / shards
	for lo := 0; lo < len(rows); lo += chunk {
		hi := lo + chunk
		if hi > len(rows) {
			hi = len(rows)
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				k, ok := ix.get(rows[i], pos)
				if !ok {
					shardOf[i] = spillShard
					continue
				}
				keys[i] = k
				shardOf[i] = uint8(ix.shardOf(k))
			}
		}(lo, hi)
	}
	wg.Wait()
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s uint8) {
			defer wg.Done()
			m := ix.heads[s]
			for i := len(shardOf) - 1; i >= 0; i-- {
				if shardOf[i] == s {
					link(m, keys[i], int32(i), next)
				}
			}
		}(uint8(s))
	}
	wg.Wait()
	for i := len(shardOf) - 1; i >= 0; i-- {
		if shardOf[i] == spillShard {
			ix.insertSpill(rows[i], pos, int32(i), next)
		}
	}
}

// spillShard marks rows routed to the canonical-string spill map.
const spillShard = 255

func (ix *typedIndex[K]) head(row Tuple, pos int) int32 {
	k, ok := ix.get(row, pos)
	if !ok {
		if h, ok := ix.spill[row.Key(pos)]; ok {
			return h
		}
		return -1
	}
	if h, ok := ix.heads[ix.shardOf(k)][k]; ok {
		return h
	}
	return -1
}

// newKeyIndex picks the typed index for the declared key type. A Float
// key is its canonical bits — every NaN one value, -0 and +0 two — the
// equivalence Tuple.Key, KeyHash, GroupBy and the hash router use, so
// a Float join agrees with the NestedLoopJoin oracle at every shard
// count.
func newKeyIndex(t Type) keyIndex {
	switch t {
	case Int:
		return &typedIndex[int64]{
			get:  func(r Tuple, p int) (int64, bool) { return int64(r[p].n), r[p].Kind() == Int },
			hash: func(v int64) uint32 { return mix64(uint64(v)) },
		}
	case Float:
		return &typedIndex[uint64]{
			get: func(r Tuple, p int) (uint64, bool) {
				return canonFloatBits(math.Float64frombits(r[p].n)), r[p].Kind() == Float
			},
			hash: mix64,
		}
	case Bool:
		return &typedIndex[bool]{
			get: func(r Tuple, p int) (bool, bool) { return r[p].n != 0, r[p].Kind() == Bool },
			hash: func(v bool) uint32 {
				if v {
					return 1
				}
				return 0
			},
		}
	default:
		return &typedIndex[string]{
			get: func(r Tuple, p int) (string, bool) {
				if r[p].Kind() != String {
					return "", false
				}
				return r[p].Str(), true
			},
			hash: fnv32,
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
	plan  *joinPlan
	kind  JoinType
	ix    keyIndex
	next  []int32
	build []Tuple
}

// NewJoiner builds the hash index over the right (build) table for
// probes whose rows follow leftSchema. shards controls the hash
// partitioning (and the build parallelism) of the index; values below 1
// (and above 128) are clamped. Output is identical for every shard
// count.
func NewJoiner(leftSchema *Schema, right *Table, leftKey, rightKey string, kind JoinType, shards int) (*Joiner, error) {
	plan, err := planJoin(leftSchema, right.Schema(), leftKey, rightKey)
	if err != nil {
		return nil, err
	}
	if shards < 1 {
		shards = 1
	}
	if shards > maxJoinShards {
		shards = maxJoinShards
	}
	ix := newKeyIndex(right.Schema().Field(plan.rk).Type)
	next := make([]int32, right.Len())
	ix.insert(right.Rows(), plan.rk, shards, next)
	return &Joiner{plan: plan, kind: kind, ix: ix, next: next, build: right.Rows()}, nil
}

// OutputSchema returns the join output schema.
func (j *Joiner) OutputSchema() *Schema { return j.plan.out }

// ProbeRows joins a batch of probe rows against the built side and
// returns the output rows, in probe order, as one batch of out. heads
// is the caller's scratch (one chain head per probe row): pass what the
// previous call returned, or nil, and keep the second result for the
// next call.
//
// Each chain is walked twice: once to count the batch's output rows and
// cells, which out then reserves in one go, and once to emit them.
func (j *Joiner) ProbeRows(out *Arena, heads []int32, rows []Tuple) ([]Tuple, []int32) {
	heads = slices.Grow(heads[:0], len(rows))[:len(rows)]
	right := len(j.plan.rightPos)
	n, cells := 0, 0
	for i, l := range rows {
		h := j.ix.head(l, j.plan.lk)
		heads[i] = h
		c := 0
		for r := h; r >= 0; r = j.next[r] {
			c++
		}
		if c == 0 && j.kind == LeftOuter {
			c = 1
		}
		n += c
		cells += c * (len(l) + right)
	}
	out.Reserve(n, cells)
	for i, l := range rows {
		h := heads[i]
		if h < 0 && j.kind == LeftOuter {
			row := out.Row(len(l) + right)
			copy(row[copy(row, l):], j.plan.padding)
		}
		for r := h; r >= 0; r = j.next[r] {
			row := out.Row(len(l) + right)
			joined, b := row[copy(row, l):], j.build[r]
			for k, p := range j.plan.rightPos {
				joined[k] = b[p]
			}
		}
	}
	return out.Batch(), heads
}

// Probe joins an entire probe table.
func (j *Joiner) Probe(left *Table) *Table {
	kstats.join.Add(1)
	out := NewTable(j.plan.out)
	out.rows, _ = j.ProbeRows(&Arena{}, nil, left.Rows())
	return out
}
