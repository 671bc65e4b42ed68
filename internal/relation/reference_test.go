package relation

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// The []any tuple functions that Value replaced, kept verbatim (renamed,
// on refTuple) as the oracle FuzzTupleMatchesReference compares the
// unboxed cell against: encoded bytes, keys and their hash, canonical
// hash and equality, Equal and sort order must not move.

type refTuple []any

func (t refTuple) Equal(o refTuple) bool {
	if len(t) != len(o) {
		return false
	}
	for i := range t {
		if t[i] != o[i] {
			return false
		}
	}
	return true
}

func (t refTuple) Key(positions ...int) string {
	var b strings.Builder
	for _, p := range positions {
		switch v := t[p].(type) {
		case int64:
			b.WriteByte('i')
			b.WriteString(strconv.FormatInt(v, 10))
		case float64:
			b.WriteByte('f')
			b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		case string:
			b.WriteByte('s')
			b.WriteString(strconv.Itoa(len(v)))
			b.WriteByte(':')
			b.WriteString(v)
		case bool:
			if v {
				b.WriteString("b1")
			} else {
				b.WriteString("b0")
			}
		default:
			b.WriteString(fmt.Sprintf("?%v", v))
		}
		b.WriteByte('|')
	}
	return b.String()
}

func (t refTuple) KeyHash(pos int) uint32 {
	const fnvOffset32, fnvPrime32 = 2166136261, 16777619
	var buf [32]byte // 'f' plus the longest float64 rendering is 25 bytes
	head, body := buf[:0], ""
	switch v := t[pos].(type) {
	case int64:
		head = strconv.AppendInt(append(head, 'i'), v, 10)
	case float64:
		head = strconv.AppendFloat(append(head, 'f'), v, 'g', -1, 64)
	case string:
		head = append(strconv.AppendInt(append(head, 's'), int64(len(v)), 10), ':')
		body = v
	case bool:
		if v {
			head = append(head, "b1"...)
		} else {
			head = append(head, "b0"...)
		}
	default:
		body = fmt.Sprintf("?%v", v)
	}
	h := uint32(fnvOffset32)
	for _, c := range head {
		h = (h ^ uint32(c)) * fnvPrime32
	}
	for i := 0; i < len(body); i++ {
		h = (h ^ uint32(body[i])) * fnvPrime32
	}
	return (h ^ '|') * fnvPrime32
}

func refEncodeTuple(dst []byte, t refTuple) ([]byte, error) {
	var scratch [binary.MaxVarintLen64]byte
	dst = binary.AppendUvarint(dst, uint64(len(t)))
	for i, v := range t {
		switch v := v.(type) {
		case int64:
			dst = append(dst, tagInt)
			binary.LittleEndian.PutUint64(scratch[:8], uint64(v))
			dst = append(dst, scratch[:8]...)
		case float64:
			dst = append(dst, tagFloat)
			binary.LittleEndian.PutUint64(scratch[:8], math.Float64bits(v))
			dst = append(dst, scratch[:8]...)
		case string:
			dst = append(dst, tagString)
			dst = binary.AppendUvarint(dst, uint64(len(v)))
			dst = append(dst, v...)
		case bool:
			dst = append(dst, tagBool)
			if v {
				dst = append(dst, 1)
			} else {
				dst = append(dst, 0)
			}
		default:
			return nil, fmt.Errorf("relation: encode: position %d has unsupported type %T", i, v)
		}
	}
	return dst, nil
}

func refEncodedSize(t refTuple) int64 {
	size := int64(uvarintLen(uint64(len(t))))
	for _, v := range t {
		switch v := v.(type) {
		case int64, float64:
			size += 9
		case string:
			size += 1 + int64(uvarintLen(uint64(len(v)))) + int64(len(v))
		case bool:
			size += 2
		}
	}
	return size
}

func refHashValueCanon(h uint64, v any) uint64 {
	switch v := v.(type) {
	case int64:
		h ^= 'i'
		h *= FNVPrime64
		return FNVMixUint64(h, uint64(v))
	case float64:
		h ^= 'f'
		h *= FNVPrime64
		return FNVMixUint64(h, canonFloatBits(v))
	case string:
		h ^= 's'
		h *= FNVPrime64
		h = FNVMixUint64(h, uint64(len(v)))
		return FNVMixString(h, v)
	case bool:
		h ^= 'b'
		h *= FNVPrime64
		if v {
			h ^= 1
			h *= FNVPrime64
		} else {
			h ^= 0
			h *= FNVPrime64
		}
		return h
	default:
		h ^= '?'
		h *= FNVPrime64
		return h
	}
}

func refEqualValueCanon(a, b any) bool {
	switch av := a.(type) {
	case float64:
		bv, ok := b.(float64)
		return ok && canonFloatBits(av) == canonFloatBits(bv)
	default:
		return a == b
	}
}

func refLessTuples(a, b refTuple, pos []int) bool {
	for _, p := range pos {
		switch av := a[p].(type) {
		case int64:
			bv := b[p].(int64)
			if av != bv {
				return av < bv
			}
		case float64:
			bv := b[p].(float64)
			if av != bv {
				return av < bv
			}
		case string:
			bv := b[p].(string)
			if av != bv {
				return av < bv
			}
		case bool:
			bv := b[p].(bool)
			if av != bv {
				return !av
			}
		}
	}
	return false
}

// cell builds the Value holding v, one of the four Go types a refTuple
// held.
func cell(v any) Value {
	switch v := v.(type) {
	case int64:
		return IntValue(v)
	case float64:
		return FloatValue(v)
	case bool:
		return BoolValue(v)
	}
	return StringValue(v.(string))
}

// fuzzCells decodes fuzz bytes into Go values: a kind byte, then eight
// bytes of int64 or float64 bits (so every NaN payload is reachable), a
// length byte and that many string bytes, or one bool byte.
func fuzzCells(data []byte) []any {
	var vals []any
	for len(data) > 0 && len(vals) < 64 {
		kind := data[0] % 4
		data = data[1:]
		switch kind {
		case 0, 1:
			var b [8]byte
			data = data[copy(b[:], data):]
			if bits := binary.LittleEndian.Uint64(b[:]); kind == 0 {
				vals = append(vals, int64(bits))
			} else {
				vals = append(vals, math.Float64frombits(bits))
			}
		case 2:
			n := 0
			if len(data) > 0 {
				n, data = min(int(data[0]), len(data)-1), data[1:]
			}
			vals = append(vals, string(data[:n]))
			data = data[n:]
		case 3:
			vals = append(vals, len(data) > 0 && data[0]&1 == 1)
			if len(data) > 0 {
				data = data[1:]
			}
		}
	}
	return vals
}

// fuzzSeed is the inverse of fuzzCells.
func fuzzSeed(vals ...any) []byte {
	var out []byte
	for _, v := range vals {
		switch v := v.(type) {
		case int64:
			out = binary.LittleEndian.AppendUint64(append(out, 0), uint64(v))
		case float64:
			out = binary.LittleEndian.AppendUint64(append(out, 1), math.Float64bits(v))
		case string:
			out = append(append(out, 2, byte(len(v))), v...)
		case bool:
			b := byte(0)
			if v {
				b = 1
			}
			out = append(out, 3, b)
		}
	}
	return out
}

// FuzzTupleMatchesReference builds one row of random cells both ways —
// as a refTuple of Go values and as a Tuple of Values — and holds every
// function Value replaced to its reference: encoded bytes and size, Key
// and KeyHash per position and over the row, String against fmt.Sprint,
// and over every pair of cells the canonical hash and equality, Equal
// (Go's ==) and, where the kinds match, sort order.
func FuzzTupleMatchesReference(f *testing.F) {
	negZero := math.Copysign(0, -1)
	f.Add(fuzzSeed(
		math.NaN(), math.Float64frombits(0x7ff0_0000_0000_0001), math.Float64frombits(0xfff8_0000_0000_00ff),
		0.0, negZero, math.Inf(1), math.Inf(-1), float64(1<<63), -float64(1<<63),
		int64(0), int64(math.MinInt64), int64(math.MaxInt64), int64(255), int64(256), int64(-1),
		"", "\x00", "a\x00b", "\xff\xfe", "naïve", true, false,
	))
	f.Add(fuzzSeed(int64(1), "1", 1.0, true, int64(256), "256", 256.0))
	f.Add(fuzzSeed(1e20, 1e21, 123456789.0, 1e-5, 0.0001, 1.5e300, math.MaxFloat64, math.SmallestNonzeroFloat64))
	f.Add(fuzzSeed(negZero, 0.0, math.NaN(), math.NaN(), "", "", false, false))
	f.Fuzz(func(t *testing.T, data []byte) {
		vals := fuzzCells(data)
		ref, row := refTuple(vals), make(Tuple, len(vals))
		for i, v := range vals {
			row[i] = cell(v)
		}
		want, err := refEncodeTuple(nil, ref)
		if err != nil {
			t.Fatal(err)
		}
		if got := EncodeTuple(nil, row); string(got) != string(want) {
			t.Fatalf("EncodeTuple = %x, reference %x", got, want)
		}
		if got, want := EncodedSize(row), refEncodedSize(ref); got != want {
			t.Fatalf("EncodedSize = %d, reference %d", got, want)
		}
		all := make([]int, len(row))
		for i := range all {
			all[i] = i
		}
		if got, want := row.Key(all...), ref.Key(all...); got != want {
			t.Fatalf("Key = %q, reference %q", got, want)
		}
		if row.Equal(row.Clone()) != ref.Equal(append(refTuple(nil), ref...)) {
			t.Fatal("Tuple.Equal of a clone differs from the reference")
		}
		for i := range row {
			if got, want := row.Key(i), ref.Key(i); got != want {
				t.Fatalf("cell %d: Key = %q, reference %q", i, got, want)
			}
			if got, want := row.KeyHash(i), ref.KeyHash(i); got != want {
				t.Fatalf("cell %d: KeyHash = %#x, reference %#x", i, got, want)
			}
			if got, want := row[i].String(), fmt.Sprint(ref[i]); got != want {
				t.Fatalf("cell %d: String = %q, fmt.Sprint %q", i, got, want)
			}
			if got, want := hashValueCanon(FNVOffset64, row[i]), refHashValueCanon(FNVOffset64, ref[i]); got != want {
				t.Fatalf("cell %d: hashValueCanon = %#x, reference %#x", i, got, want)
			}
			for j := range row {
				a, b := row[i], row[j]
				if got, want := equalValueCanon(a, b), refEqualValueCanon(ref[i], ref[j]); got != want {
					t.Fatalf("cells %d, %d (%v, %v): equalValueCanon = %v, reference %v", i, j, a, b, got, want)
				}
				if got, want := a.Equal(b), ref[i] == ref[j]; got != want {
					t.Fatalf("cells %d, %d (%v, %v): Equal = %v, reference %v", i, j, a, b, got, want)
				}
				if got, want := (Tuple{a}).Equal(Tuple{b}), (refTuple{ref[i]}).Equal(refTuple{ref[j]}); got != want {
					t.Fatalf("cells %d, %d: Tuple.Equal = %v, reference %v", i, j, got, want)
				}
				if a.Kind() != b.Kind() {
					continue
				}
				pos := []int{0}
				if got, want := lessTuples(Tuple{a}, Tuple{b}, pos), refLessTuples(refTuple{ref[i]}, refTuple{ref[j]}, pos); got != want {
					t.Fatalf("cells %d, %d (%v, %v): lessTuples = %v, reference %v", i, j, a, b, got, want)
				}
			}
		}
	})
}

// The join index and probe that the chained index replaced, kept
// verbatim (renamed) as the oracle FuzzJoinerMatchesReference compares
// Joiner against: one []int32 of build rows per distinct key, a probe
// that allocates its matches and cells per call. Its Float index keys a
// Go map by float ==, so -0 meets +0 and NaN meets nothing; the fuzz
// target holds Float keys to NestedLoopJoin instead.

// refKeyIndex maps a probe row to the build-side row indices sharing its
// key, in build order.
type refKeyIndex interface {
	insert(rows []Tuple, pos, shards int)
	matches(row Tuple, pos int) []int32
}

// refTypedIndex is the generic key index: one map per shard keyed by the
// column's native Go type, plus a lazily allocated canonical-string
// spill map for rows whose cell kind does not match the declared
// schema type (such rows can only ever match each other, exactly as
// under the canonical-key encoding the serial join used before).
type refTypedIndex[K comparable] struct {
	get    func(Tuple, int) (K, bool)
	hash   func(K) uint32
	shards []map[K][]int32
	spill  map[string][]int32
}

func (ix *refTypedIndex[K]) shardOf(k K) uint32 {
	if len(ix.shards) == 1 {
		return 0
	}
	return ix.hash(k) % uint32(len(ix.shards))
}

func (ix *refTypedIndex[K]) insertSpill(row Tuple, pos int, i int32) {
	if ix.spill == nil {
		ix.spill = make(map[string][]int32)
	}
	k := row.Key(pos)
	ix.spill[k] = append(ix.spill[k], i)
}

func (ix *refTypedIndex[K]) insert(rows []Tuple, pos, shards int) {
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
					shardOf[i] = refSpillShard
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
		if sh == refSpillShard {
			ix.insertSpill(rows[i], pos, int32(i))
		}
	}
}

// refSpillShard marks rows routed to the canonical-string spill map.
const refSpillShard = 255

func (ix *refTypedIndex[K]) matches(row Tuple, pos int) []int32 {
	k, ok := ix.get(row, pos)
	if !ok {
		if ix.spill == nil {
			return nil
		}
		return ix.spill[row.Key(pos)]
	}
	return ix.shards[ix.shardOf(k)][k]
}

// refNewKeyIndex picks the typed index for the declared key type.
func refNewKeyIndex(t Type) refKeyIndex {
	switch t {
	case Int:
		return &refTypedIndex[int64]{
			get:  func(r Tuple, p int) (int64, bool) { return int64(r[p].n), r[p].Kind() == Int },
			hash: func(v int64) uint32 { return mix64(uint64(v)) },
		}
	case Float:
		return &refTypedIndex[float64]{
			get:  func(r Tuple, p int) (float64, bool) { return math.Float64frombits(r[p].n), r[p].Kind() == Float },
			hash: func(v float64) uint32 { return mix64(math.Float64bits(v)) },
		}
	case Bool:
		return &refTypedIndex[bool]{
			get: func(r Tuple, p int) (bool, bool) { return r[p].n != 0, r[p].Kind() == Bool },
			hash: func(v bool) uint32 {
				if v {
					return 1
				}
				return 0
			},
		}
	default:
		return &refTypedIndex[string]{
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

// refJoiner is a reusable equi-join with the build phase done up front:
// construct it once over the build (right) side, then probe whole
// tables or successive row batches. Streaming callers (the dataflow
// hash-join operator) avoid rebuilding the hash table per batch.
type refJoiner struct {
	plan  *joinPlan
	kind  JoinType
	ix    refKeyIndex
	build []Tuple
}

// refNewJoiner builds the hash index over the right (build) table for
// probes whose rows follow leftSchema. shards controls the hash
// partitioning (and the build parallelism) of the index; values below 1
// (and above 128) are clamped. Output is identical for every shard
// count.
func refNewJoiner(leftSchema *Schema, right *Table, leftKey, rightKey string, kind JoinType, shards int) (*refJoiner, error) {
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
	ix := refNewKeyIndex(right.Schema().Field(plan.rk).Type)
	ix.insert(right.Rows(), plan.rk, shards)
	return &refJoiner{plan: plan, kind: kind, ix: ix, build: right.Rows()}, nil
}

// refUnmatched stands in for the match list of a LeftOuter probe row with
// no match: one output row, padded instead of joined.
var refUnmatched = []int32{-1}

// ProbeRows joins a batch of probe rows against the built side,
// appending output rows to dst in probe order.
//
// Storage is sized by the batch's output, whatever the batch size: the
// matches are looked up once and counted, then every output tuple is
// carved from one block of exactly that many rows. Each tuple's
// capacity ends where the next begins, so appending to one cannot
// write into its neighbour. Rows escape downstream and into sink
// tables, so nothing here is reused across calls.
func (j *refJoiner) ProbeRows(dst []Tuple, rows []Tuple) []Tuple {
	matches := make([][]int32, len(rows))
	n := 0
	for i, l := range rows {
		ms := j.ix.matches(l, j.plan.lk)
		if len(ms) == 0 && j.kind == LeftOuter {
			ms = refUnmatched
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

// NestedLoopJoin is the O(n·m) reference implementation used as a
// testing oracle for HashJoin.
func NestedLoopJoin(left, right *Table, leftKey, rightKey string, kind JoinType) (*Table, error) {
	lk := left.Schema().IndexOf(leftKey)
	rk := right.Schema().IndexOf(rightKey)
	if lk < 0 || rk < 0 {
		return nil, fmt.Errorf("relation: nested loop join: key not found")
	}
	// Reuse HashJoin's schema computation by joining empty tables.
	proto, err := HashJoin(NewTable(left.Schema()), NewTable(right.Schema()), leftKey, rightKey, kind)
	if err != nil {
		return nil, err
	}
	out := NewTable(proto.Schema())
	rightPos := make([]int, 0, right.Schema().Len()-1)
	for i := 0; i < right.Schema().Len(); i++ {
		if i != rk {
			rightPos = append(rightPos, i)
		}
	}
	for _, l := range left.Rows() {
		matched := false
		for _, r := range right.Rows() {
			if l.Key(lk) == r.Key(rk) {
				matched = true
				row := make(Tuple, 0, out.Schema().Len())
				row = append(row, l...)
				for _, p := range rightPos {
					row = append(row, r[p])
				}
				out.AppendUnchecked(row)
			}
		}
		if !matched && kind == LeftOuter {
			row := make(Tuple, 0, out.Schema().Len())
			row = append(row, l...)
			for _, p := range rightPos {
				switch right.Schema().Field(p).Type {
				case Int:
					row = append(row, IntValue(0))
				case Float:
					row = append(row, FloatValue(0))
				case String:
					row = append(row, StringValue(""))
				case Bool:
					row = append(row, BoolValue(false))
				}
			}
			out.AppendUnchecked(row)
		}
	}
	return out, nil
}
