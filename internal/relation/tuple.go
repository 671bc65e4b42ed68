package relation

import (
	"fmt"
	"strconv"
)

// Tuple is one row of cells. Positions correspond to schema fields.
type Tuple []Value

// Validate checks that t conforms to schema s.
func (t Tuple) Validate(s *Schema) error {
	if len(t) != s.Len() {
		return fmt.Errorf("relation: tuple has %d values, schema has %d fields", len(t), s.Len())
	}
	for i, v := range t {
		if f := s.Field(i); v.Kind() != f.Type {
			return fmt.Errorf("relation: field %q: value %v (%s) is not %s", f.Name, v, v.Kind(), f.Type)
		}
	}
	return nil
}

// Equal reports cell-by-cell Value.Equal of two tuples.
func (t Tuple) Equal(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	for i := range t {
		if !t[i].Equal(o[i]) {
			return false
		}
	}
	return true
}

// keyParts returns v's canonical key bytes, appending its kind tag and
// rendering to dst; a string's own bytes come back as body, unrendered.
func (v Value) keyParts(dst []byte) (head []byte, body string) {
	switch v.Kind() {
	case Int:
		return strconv.AppendInt(append(dst, 'i'), v.Int(), 10), ""
	case Float:
		return strconv.AppendFloat(append(dst, 'f'), v.Float(), 'g', -1, 64), ""
	case Bool:
		if v.Bool() {
			return append(dst, "b1"...), ""
		}
		return append(dst, "b0"...), ""
	}
	s := v.Str()
	return append(strconv.AppendInt(append(dst, 's'), int64(len(s)), 10), ':'), s
}

// KeyHash returns the 32-bit FNV-1a hash of cell pos's canonical key
// (keyParts' bytes, then '|') without building the key: the bytes are
// rendered into a stack buffer (a string's own bytes are read in
// place) and folded into the hash, so partitioning a row by its key
// allocates nothing.
func (t Tuple) KeyHash(pos int) uint32 {
	const fnvOffset32, fnvPrime32 = 2166136261, 16777619
	var buf [32]byte // 'f' plus the longest float64 rendering is 25 bytes
	head, body := t[pos].keyParts(buf[:0])
	h := uint32(fnvOffset32)
	for _, c := range head {
		h = (h ^ uint32(c)) * fnvPrime32
	}
	for i := 0; i < len(body); i++ {
		h = (h ^ uint32(body[i])) * fnvPrime32
	}
	return (h ^ '|') * fnvPrime32
}
