package relation

import (
	"fmt"
	"math"
	"strconv"
	"unsafe"
)

// Value is one cell of a Tuple: an int64, float64, string or bool held
// unboxed in 16 bytes, the size of the interface it replaces. p is a
// string's bytes (nil for "") or the address of one of the three kind
// tags below; n is the string's length or the number's or bool's bits.
// The zero Value is therefore "". A string cell keeps its bytes alive
// through p, so the collector sees exactly one pointer per cell and
// never a number posing as one. The [0]func() field makes == a compile
// error: p differs between equal strings, so every comparison goes
// through Equal.
//
// This is the only file in the package that imports unsafe.
type Value struct {
	_ [0]func()
	p unsafe.Pointer
	n uint64
}

// The kind tags. Only their addresses matter; each is one byte so that
// no two share an address.
var intTag, floatTag, boolTag byte

// IntValue returns an Int cell.
func IntValue(i int64) Value { return Value{p: unsafe.Pointer(&intTag), n: uint64(i)} }

// FloatValue returns a Float cell.
func FloatValue(f float64) Value {
	return Value{p: unsafe.Pointer(&floatTag), n: math.Float64bits(f)}
}

// StringValue returns a String cell sharing s's bytes.
func StringValue(s string) Value {
	if len(s) == 0 {
		return Value{}
	}
	return Value{p: unsafe.Pointer(unsafe.StringData(s)), n: uint64(len(s))}
}

// BoolValue returns a Bool cell.
func BoolValue(b bool) Value {
	v := Value{p: unsafe.Pointer(&boolTag)}
	if b {
		v.n = 1
	}
	return v
}

// Kind returns the cell's type.
func (v Value) Kind() Type {
	switch v.p {
	case unsafe.Pointer(&intTag):
		return Int
	case unsafe.Pointer(&floatTag):
		return Float
	case unsafe.Pointer(&boolTag):
		return Bool
	}
	return String
}

func (v Value) must(k Type) {
	if got := v.Kind(); got != k {
		panic(fmt.Errorf("relation: cell holds %s, not %s", got, k))
	}
}

// Int returns an Int cell's value; it panics on any other kind.
func (v Value) Int() int64 { v.must(Int); return int64(v.n) }

// Float returns a Float cell's value; it panics on any other kind.
func (v Value) Float() float64 { v.must(Float); return math.Float64frombits(v.n) }

// Str returns a String cell's value; it panics on any other kind.
func (v Value) Str() string { v.must(String); return unsafe.String((*byte)(v.p), int(v.n)) }

// Bool returns a Bool cell's value; it panics on any other kind.
func (v Value) Bool() bool { v.must(Bool); return v.n != 0 }

// Equal is Go's == on the values the cells hold: kinds must match,
// NaN != NaN and -0 == +0.
func (v Value) Equal(o Value) bool {
	k := v.Kind()
	switch {
	case k != o.Kind():
		return false
	case k == Float:
		return v.Float() == o.Float()
	case k == String:
		return v.n == o.n && v.Str() == o.Str()
	}
	return v.n == o.n
}

// String renders the cell as fmt.Sprint renders the value it holds.
func (v Value) String() string {
	switch v.Kind() {
	case Int:
		return strconv.FormatInt(v.Int(), 10)
	case Float:
		return strconv.FormatFloat(v.Float(), 'g', -1, 64)
	case Bool:
		return strconv.FormatBool(v.Bool())
	}
	return v.Str()
}
