package relation

import "strings"

// The table and tuple helpers below are test-only: tests build, copy
// and compare tables with them; the product never does.

// MustAppend is Append that panics; for rows of statically known shape.
func (t *Table) MustAppend(row Tuple) {
	if err := t.Append(row); err != nil {
		panic(err)
	}
}

// Clone deep-copies the table (rows are cloned; values are immutable).
func (t *Table) Clone() *Table {
	c := NewTable(t.schema)
	c.rows = make([]Tuple, len(t.rows))
	for i, r := range t.rows {
		c.rows[i] = r.Clone()
	}
	return c
}

// EqualUnordered reports whether two tables contain the same multiset
// of rows regardless of order. Rows are bucketed by their canonical
// uint64 hash (no per-row key-string allocation) and compared by
// canonical value equality within buckets.
func (t *Table) EqualUnordered(o *Table) bool {
	if !t.schema.Equal(o.schema) || t.Len() != o.Len() {
		return false
	}
	all := make([]int, t.schema.Len())
	for i := range all {
		all[i] = i
	}
	type entry struct {
		row   Tuple
		count int
	}
	buckets := make(map[uint64][]entry, t.Len())
	find := func(b []entry, r Tuple) int {
		for i := range b {
			if equalTupleCanon(b[i].row, r, all) {
				return i
			}
		}
		return -1
	}
	for _, r := range t.Rows() {
		h := hashTupleCanon(r, all)
		b := buckets[h]
		if i := find(b, r); i >= 0 {
			b[i].count++
		} else {
			buckets[h] = append(b, entry{row: r, count: 1})
		}
	}
	for _, r := range o.Rows() {
		h := hashTupleCanon(r, all)
		b := buckets[h]
		i := find(b, r)
		if i < 0 {
			return false
		}
		b[i].count--
		if b[i].count < 0 {
			return false
		}
	}
	// Equal lengths + no count underflow means every count is zero.
	return true
}

// Clone returns a copy of the tuple. Cells are immutable, so a shallow
// copy suffices.
func (t Tuple) Clone() Tuple {
	c := make(Tuple, len(t))
	copy(c, t)
	return c
}

// Key renders the values at the given positions into a canonical
// string, usable as a hash-map key for joins and grouping. Types are
// tagged so int64(1) and "1" cannot collide.
func (t Tuple) Key(positions ...int) string {
	var b strings.Builder
	for _, p := range positions {
		var buf [32]byte
		head, body := t[p].keyParts(buf[:0])
		b.Write(head)
		b.WriteString(body)
		b.WriteByte('|')
	}
	return b.String()
}

// equalTupleCanon compares the values at the given positions.
func equalTupleCanon(a, b Tuple, pos []int) bool {
	for _, p := range pos {
		if !equalValueCanon(a[p], b[p]) {
			return false
		}
	}
	return true
}
