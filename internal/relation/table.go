package relation

import (
	"fmt"
	"slices"
)

// Table is an in-memory relation: a schema plus rows.
type Table struct {
	schema *Schema
	rows   []Tuple
}

// NewTable returns an empty table with the given schema.
func NewTable(s *Schema) *Table {
	return &Table{schema: s}
}

// TableOver returns a table of schema s over rows, which it keeps, not
// copies; the caller hands them over and does not write them again.
func TableOver(s *Schema, rows []Tuple) *Table {
	return &Table{schema: s, rows: rows}
}

// Schema returns the table's schema.
func (t *Table) Schema() *Schema { return t.schema }

// Len returns the number of rows.
func (t *Table) Len() int { return len(t.rows) }

// Row returns the i-th row (not a copy).
func (t *Table) Row(i int) Tuple { return t.rows[i] }

// Rows returns the backing row slice (not a copy); callers must not
// mutate it unless they own the table.
func (t *Table) Rows() []Tuple { return t.rows }

// Append adds a row after validating it.
func (t *Table) Append(row Tuple) error {
	if err := row.Validate(t.schema); err != nil {
		return err
	}
	t.rows = append(t.rows, row)
	return nil
}

// MustAppend is Append that panics; for rows of statically known shape.
func (t *Table) MustAppend(row Tuple) {
	if err := t.Append(row); err != nil {
		panic(err)
	}
}

// AppendUnchecked adds a row without validation; for hot paths where
// the producer guarantees the shape.
func (t *Table) AppendUnchecked(row Tuple) {
	t.rows = append(t.rows, row)
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

// Equal reports whether two tables have equal schemas and identical
// rows in order.
func (t *Table) Equal(o *Table) bool {
	if !t.schema.Equal(o.schema) || len(t.rows) != len(o.rows) {
		return false
	}
	for i := range t.rows {
		if !t.rows[i].Equal(o.rows[i]) {
			return false
		}
	}
	return true
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

// Batch is a contiguous chunk of rows flowing between operators.
type Batch struct {
	Schema *Schema
	Rows   []Tuple
}

// Batches splits the table into batches of at most size rows. A
// non-positive size yields a single batch. An empty table yields no
// batches.
func (t *Table) Batches(size int) []Batch {
	if len(t.rows) == 0 {
		return nil
	}
	if size <= 0 || size >= len(t.rows) {
		return []Batch{{Schema: t.schema, Rows: t.rows}}
	}
	var out []Batch
	for i := 0; i < len(t.rows); i += size {
		end := i + size
		if end > len(t.rows) {
			end = len(t.rows)
		}
		out = append(out, Batch{Schema: t.schema, Rows: t.rows[i:end]})
	}
	return out
}

// Concat appends all rows of o (which must share the schema).
func (t *Table) Concat(o *Table) error {
	if !t.schema.Equal(o.schema) {
		return fmt.Errorf("relation: concat schema mismatch: [%s] vs [%s]", t.schema, o.schema)
	}
	t.rows = append(t.rows, o.Rows()...)
	return nil
}

// SortBy sorts rows in place by the named fields ascending. Fields of
// different types compare by their canonical key encoding.
func (t *Table) SortBy(names ...string) error {
	pos := make([]int, len(names))
	for i, n := range names {
		p := t.schema.IndexOf(n)
		if p < 0 {
			return fmt.Errorf("relation: sort: unknown field %q", n)
		}
		pos[i] = p
	}
	slices.SortStableFunc(t.rows, func(a, b Tuple) int {
		switch {
		case lessTuples(a, b, pos):
			return -1
		case lessTuples(b, a, pos):
			return 1
		}
		return 0
	})
	return nil
}

func lessTuples(a, b Tuple, pos []int) bool {
	for _, p := range pos {
		av, bv := a[p], b[p]
		switch av.Kind() {
		case Int:
			if x, y := av.Int(), bv.Int(); x != y {
				return x < y
			}
		case Float:
			if x, y := av.Float(), bv.Float(); x != y {
				return x < y
			}
		case Bool:
			if x, y := av.Bool(), bv.Bool(); x != y {
				return !x
			}
		default:
			if x, y := av.Str(), bv.Str(); x != y {
				return x < y
			}
		}
	}
	return false
}
