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

// AppendUnchecked adds a row without validation; for hot paths where
// the producer guarantees the shape.
func (t *Table) AppendUnchecked(row Tuple) {
	t.rows = append(t.rows, row)
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
