package relation

import (
	"fmt"
	"strconv"
	"strings"
)

// Tuple is one row of values. Positions correspond to schema fields;
// values are int64, float64, string or bool.
type Tuple []any

// Validate checks that t conforms to schema s.
func (t Tuple) Validate(s *Schema) error {
	if len(t) != s.Len() {
		return fmt.Errorf("relation: tuple has %d values, schema has %d fields", len(t), s.Len())
	}
	for i, v := range t {
		f := s.Field(i)
		ok := false
		switch f.Type {
		case Int:
			_, ok = v.(int64)
		case Float:
			_, ok = v.(float64)
		case String:
			_, ok = v.(string)
		case Bool:
			_, ok = v.(bool)
		}
		if !ok {
			return fmt.Errorf("relation: field %q: value %v (%T) is not %s", f.Name, v, v, f.Type)
		}
	}
	return nil
}

// Clone returns a copy of the tuple. Values are immutable types, so a
// shallow copy suffices.
func (t Tuple) Clone() Tuple {
	c := make(Tuple, len(t))
	copy(c, t)
	return c
}

// Equal reports value equality of two tuples.
func (t Tuple) Equal(o Tuple) bool {
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

// Key renders the values at the given positions into a canonical
// string, usable as a hash-map key for joins and grouping. Types are
// tagged so int64(1) and "1" cannot collide.
func (t Tuple) Key(positions ...int) string {
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

// KeyHash returns the 32-bit FNV-1a hash of t.Key(pos) without building
// the key: the bytes Key would write are rendered into a stack buffer
// (a string's own bytes are read in place) and folded into the hash, so
// partitioning a row by its key allocates nothing.
func (t Tuple) KeyHash(pos int) uint32 {
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

// Int returns the int64 at position i, or an error.
func (t Tuple) Int(i int) (int64, error) {
	v, ok := t[i].(int64)
	if !ok {
		return 0, fmt.Errorf("relation: position %d holds %T, not int64", i, t[i])
	}
	return v, nil
}

// Float returns the float64 at position i, or an error.
func (t Tuple) Float(i int) (float64, error) {
	v, ok := t[i].(float64)
	if !ok {
		return 0, fmt.Errorf("relation: position %d holds %T, not float64", i, t[i])
	}
	return v, nil
}

// Str returns the string at position i, or an error.
func (t Tuple) Str(i int) (string, error) {
	v, ok := t[i].(string)
	if !ok {
		return "", fmt.Errorf("relation: position %d holds %T, not string", i, t[i])
	}
	return v, nil
}

// BoolAt returns the bool at position i, or an error.
func (t Tuple) BoolAt(i int) (bool, error) {
	v, ok := t[i].(bool)
	if !ok {
		return false, fmt.Errorf("relation: position %d holds %T, not bool", i, t[i])
	}
	return v, nil
}

// MustInt is Int that panics; for positions whose type is guaranteed
// by a validated schema.
func (t Tuple) MustInt(i int) int64 {
	v, err := t.Int(i)
	if err != nil {
		panic(err)
	}
	return v
}

// MustFloat is Float that panics.
func (t Tuple) MustFloat(i int) float64 {
	v, err := t.Float(i)
	if err != nil {
		panic(err)
	}
	return v
}

// MustStr is Str that panics.
func (t Tuple) MustStr(i int) string {
	v, err := t.Str(i)
	if err != nil {
		panic(err)
	}
	return v
}

// MustBool is BoolAt that panics.
func (t Tuple) MustBool(i int) bool {
	v, err := t.BoolAt(i)
	if err != nil {
		panic(err)
	}
	return v
}
