package relation

import (
	"fmt"
	"math"
	"slices"
	"sync"
)

// This file holds the shared machinery behind the equi-join variants:
// a joinPlan (schema work done once), a typed, optionally
// hash-partitioned build index (no canonical-string key allocation on
// the hot path), and the Joiner, which separates the build phase from
// probing so streaming callers can build once and probe many batches.
//
// Determinism contract: output rows come in probe (left) order, with
// the matches of each probe row in build (right) order, regardless of
// shard count: the build side is hash-partitioned, so equal keys never
// split across shards, and shard insertion preserves build order.

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

// keyIndex maps a probe row to the build-side row indices sharing its
// key, in build order.
type keyIndex interface {
	insert(rows []Tuple, pos, shards int)
	matches(row Tuple, pos int) []int32
}

// typedIndex is the generic key index: one map per shard keyed by the
// column's native Go type, plus a lazily allocated canonical-string
// spill map for rows whose cell kind does not match the declared
// schema type (such rows can only ever match each other, exactly as
// under the canonical-key encoding the serial join used before).
type typedIndex[K comparable] struct {
	get    func(Tuple, int) (K, bool)
	hash   func(K) uint32
	shards []map[K][]int32
	spill  map[string][]int32
}

func (ix *typedIndex[K]) shardOf(k K) uint32 {
	if len(ix.shards) == 1 {
		return 0
	}
	return ix.hash(k) % uint32(len(ix.shards))
}

func (ix *typedIndex[K]) insertSpill(row Tuple, pos int, i int32) {
	if ix.spill == nil {
		ix.spill = make(map[string][]int32)
	}
	k := row.Key(pos)
	ix.spill[k] = append(ix.spill[k], i)
}

func (ix *typedIndex[K]) insert(rows []Tuple, pos, shards int) {
	ix.shards = make([]map[K][]int32, shards)
	sizeHint := len(rows)/shards + 1
	for s := range ix.shards {
		ix.shards[s] = make(map[K][]int32, sizeHint)
	}
	if shards == 1 || len(rows) < 2*shards {
		for i, r := range rows {
			k, ok := ix.get(r, pos)
			if !ok {
				ix.insertSpill(r, pos, int32(i))
				continue
			}
			m := ix.shards[ix.shardOf(k)]
			m[k] = append(m[k], int32(i))
		}
		return
	}
	// Two-pass parallel build: pass 1 extracts keys and shard ids over
	// contiguous chunks, pass 2 lets each shard insert its rows in build
	// order (disjoint maps, no locking).
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
			m := ix.shards[s]
			for i, sh := range shardOf {
				if sh == s {
					m[keys[i]] = append(m[keys[i]], int32(i))
				}
			}
		}(uint8(s))
	}
	wg.Wait()
	for i, sh := range shardOf {
		if sh == spillShard {
			ix.insertSpill(rows[i], pos, int32(i))
		}
	}
}

// spillShard marks rows routed to the canonical-string spill map.
const spillShard = 255

func (ix *typedIndex[K]) matches(row Tuple, pos int) []int32 {
	k, ok := ix.get(row, pos)
	if !ok {
		if ix.spill == nil {
			return nil
		}
		return ix.spill[row.Key(pos)]
	}
	return ix.shards[ix.shardOf(k)][k]
}

// newKeyIndex picks the typed index for the declared key type.
func newKeyIndex(t Type) keyIndex {
	switch t {
	case Int:
		return &typedIndex[int64]{
			get:  func(r Tuple, p int) (int64, bool) { return int64(r[p].n), r[p].Kind() == Int },
			hash: func(v int64) uint32 { return mix64(uint64(v)) },
		}
	case Float:
		return &typedIndex[float64]{
			get:  func(r Tuple, p int) (float64, bool) { return math.Float64frombits(r[p].n), r[p].Kind() == Float },
			hash: func(v float64) uint32 { return mix64(math.Float64bits(v)) },
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
// hash-join operator) avoid rebuilding the hash table per batch.
type Joiner struct {
	plan  *joinPlan
	kind  JoinType
	ix    keyIndex
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
	ix.insert(right.Rows(), plan.rk, shards)
	return &Joiner{plan: plan, kind: kind, ix: ix, build: right.Rows()}, nil
}

// OutputSchema returns the join output schema.
func (j *Joiner) OutputSchema() *Schema { return j.plan.out }

// unmatched stands in for the match list of a LeftOuter probe row with
// no match: one output row, padded instead of joined.
var unmatched = []int32{-1}

// ProbeRows joins a batch of probe rows against the built side,
// appending output rows to dst in probe order.
//
// Storage is sized by the batch's output, whatever the batch size: the
// matches are looked up once and counted, then every output tuple is
// carved from one block of exactly that many rows. Each tuple's
// capacity ends where the next begins, so appending to one cannot
// write into its neighbour. Rows escape downstream and into sink
// tables, so nothing here is reused across calls.
func (j *Joiner) ProbeRows(dst []Tuple, rows []Tuple) []Tuple {
	matches := make([][]int32, len(rows))
	n := 0
	for i, l := range rows {
		ms := j.ix.matches(l, j.plan.lk)
		if len(ms) == 0 && j.kind == LeftOuter {
			ms = unmatched
		}
		matches[i] = ms
		n += len(ms)
	}
	block := make([]Value, 0, n*j.plan.out.Len())
	dst = slices.Grow(dst, n)
	for i, l := range rows {
		for _, ri := range matches[i] {
			start := len(block)
			block = append(block, l...)
			if ri < 0 {
				block = append(block, j.plan.padding...)
			} else {
				r := j.build[ri]
				for _, p := range j.plan.rightPos {
					block = append(block, r[p])
				}
			}
			dst = append(dst, block[start:len(block):len(block)])
		}
	}
	return dst
}

// Probe joins an entire probe table.
func (j *Joiner) Probe(left *Table) *Table {
	kstats.join.Add(1)
	out := NewTable(j.plan.out)
	out.rows = j.ProbeRows(make([]Tuple, 0, left.Len()), left.Rows())
	return out
}
