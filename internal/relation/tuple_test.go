package relation

import (
	"math"
	"strings"
	"testing"
)

var testSchema = MustSchema(
	Field{"id", Int}, Field{"name", String}, Field{"score", Float}, Field{"ok", Bool},
)

func TestTupleValidate(t *testing.T) {
	good := Tuple{int64(1), "x", 2.5, true}
	if err := good.Validate(testSchema); err != nil {
		t.Fatal(err)
	}
	bad := []Tuple{
		{int64(1), "x", 2.5},                  // short
		{int64(1), "x", 2.5, true, false},     // long
		{1, "x", 2.5, true},                   // int not int64
		{int64(1), 5, 2.5, true},              // wrong type
		{int64(1), "x", "not a float", true},  // wrong type
		{int64(1), "x", 2.5, "not a boolean"}, // wrong type
	}
	for i, b := range bad {
		if err := b.Validate(testSchema); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestTupleCloneEqual(t *testing.T) {
	a := Tuple{int64(1), "x", 2.5, true}
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone not equal")
	}
	b[0] = int64(2)
	if a.Equal(b) {
		t.Fatal("mutated clone still equal")
	}
	if a[0] != int64(1) {
		t.Fatal("clone aliased original")
	}
	if a.Equal(Tuple{int64(1)}) {
		t.Fatal("length mismatch reported equal")
	}
}

func TestTupleKeyDistinguishesTypes(t *testing.T) {
	a := Tuple{int64(1)}
	b := Tuple{"1"}
	if a.Key(0) == b.Key(0) {
		t.Fatal("int64(1) and \"1\" keys collide")
	}
	c := Tuple{1.0}
	if a.Key(0) == c.Key(0) {
		t.Fatal("int64(1) and float64(1) keys collide")
	}
	d := Tuple{true}
	e := Tuple{false}
	if d.Key(0) == e.Key(0) {
		t.Fatal("bool keys collide")
	}
}

func TestTupleKeyNoConcatenationAmbiguity(t *testing.T) {
	// ("ab","c") must not collide with ("a","bc").
	a := Tuple{"ab", "c"}
	b := Tuple{"a", "bc"}
	if a.Key(0, 1) == b.Key(0, 1) {
		t.Fatal("string concatenation ambiguity in Key")
	}
}

// TestTupleKeyHashMatchesKey holds KeyHash to its contract: bit for bit
// the FNV-1a hash of the key string, for every value kind Key renders,
// without building that string.
func TestTupleKeyHashMatchesKey(t *testing.T) {
	type offSchema struct{ a, b int }
	row := Tuple{
		int64(0), int64(-1), int64(math.MinInt64), int64(1<<53 + 1), int64(math.MaxInt64),
		0.0, math.Copysign(0, -1), math.NaN(), 1e300, -2.5e-300, math.Inf(1), math.MaxFloat64, -math.MaxFloat64,
		"", "plain", "naïve — 多字节", "a|b:c", "12:34|", strings.Repeat("x", 300),
		true, false,
		int32(7), offSchema{1, 2}, nil,
	}
	for pos, v := range row {
		if got, want := row.KeyHash(pos), fnv32(row.Key(pos)); got != want {
			t.Errorf("KeyHash of %#v = %#x, fnv32(Key) = %#x", v, got, want)
		}
	}
	for _, pos := range []int{3, 8, 15, 19} { // int64, float64, string, bool
		if n := testing.AllocsPerRun(100, func() { row.KeyHash(pos) }); n != 0 {
			t.Errorf("KeyHash of %#v allocates %v objects; a schema-typed key must allocate none", row[pos], n)
		}
	}
}

func TestTupleAccessors(t *testing.T) {
	tp := Tuple{int64(7), "hi", 3.5, true}
	if v, err := tp.Int(0); err != nil || v != 7 {
		t.Fatalf("Int: %v %v", v, err)
	}
	if v, err := tp.Str(1); err != nil || v != "hi" {
		t.Fatalf("Str: %v %v", v, err)
	}
	if v, err := tp.Float(2); err != nil || v != 3.5 {
		t.Fatalf("Float: %v %v", v, err)
	}
	if v, err := tp.BoolAt(3); err != nil || v != true {
		t.Fatalf("BoolAt: %v %v", v, err)
	}
	if _, err := tp.Int(1); err == nil {
		t.Fatal("expected type error")
	}
	if _, err := tp.Float(0); err == nil {
		t.Fatal("expected type error")
	}
	if _, err := tp.Str(0); err == nil {
		t.Fatal("expected type error")
	}
	if _, err := tp.BoolAt(0); err == nil {
		t.Fatal("expected type error")
	}
}

func TestTupleMustAccessors(t *testing.T) {
	tp := Tuple{int64(7), "hi", 3.5, true}
	if tp.MustInt(0) != 7 || tp.MustStr(1) != "hi" || tp.MustFloat(2) != 3.5 || !tp.MustBool(3) {
		t.Fatal("must accessors wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tp.MustInt(1)
}
