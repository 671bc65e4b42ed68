// Package reltest holds the relation helpers that tests in other
// packages share: building tables of statically known shape, a
// validating row map, and comparing tables as multisets of rows.
package reltest

import (
	"fmt"
	"strconv"

	"repro/internal/relation"
)

// MustAppend is Table.Append that panics; for rows of statically known
// shape.
func MustAppend(t *relation.Table, row relation.Tuple) {
	if err := t.Append(row); err != nil {
		panic(err)
	}
}

// Map applies fn to every row, producing rows of the given output
// schema. Output rows are validated.
func Map(t *relation.Table, out *relation.Schema, fn func(relation.Tuple) (relation.Tuple, error)) (*relation.Table, error) {
	res := relation.NewTable(out)
	for i, r := range t.Rows() {
		row, err := fn(r)
		if err != nil {
			return nil, fmt.Errorf("relation: map row %d: %w", i, err)
		}
		if err := res.Append(row); err != nil {
			return nil, fmt.Errorf("relation: map row %d: %w", i, err)
		}
	}
	return res, nil
}

// EqualUnordered reports whether two tables have equal schemas and the
// same multiset of rows, regardless of order. Every NaN is one value,
// and -0 is not +0.
func EqualUnordered(a, b *relation.Table) bool {
	if !a.Schema().Equal(b.Schema()) || a.Len() != b.Len() {
		return false
	}
	counts := make(map[string]int, a.Len())
	for _, r := range a.Rows() {
		counts[key(r)]++
	}
	for _, r := range b.Rows() {
		k := key(r)
		if counts[k] == 0 {
			return false
		}
		counts[k]--
	}
	return true
}

// key renders a row so that two rows share a key exactly when
// EqualUnordered counts them as one.
func key(r relation.Tuple) string {
	var b []byte
	for _, v := range r {
		switch v.Kind() {
		case relation.Int:
			b = strconv.AppendInt(append(b, 'i'), v.Int(), 10)
		case relation.Float:
			b = strconv.AppendFloat(append(b, 'f'), v.Float(), 'g', -1, 64)
		case relation.Bool:
			b = strconv.AppendBool(append(b, 'b'), v.Bool())
		default:
			b = strconv.AppendQuote(append(b, 's'), v.Str())
		}
		b = append(b, '|')
	}
	return string(b)
}
