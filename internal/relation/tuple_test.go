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
	good := Tuple{IntValue(1), StringValue("x"), FloatValue(2.5), BoolValue(true)}
	if err := good.Validate(testSchema); err != nil {
		t.Fatal(err)
	}
	bad := []Tuple{
		{IntValue(1), StringValue("x"), FloatValue(2.5)},                                    // short
		{IntValue(1), StringValue("x"), FloatValue(2.5), BoolValue(true), BoolValue(false)}, // long
		{IntValue(1), IntValue(5), FloatValue(2.5), BoolValue(true)},                        // wrong type
		{IntValue(1), StringValue("x"), StringValue("not a float"), BoolValue(true)},        // wrong type
		{IntValue(1), StringValue("x"), FloatValue(2.5), StringValue("not a boolean")},      // wrong type
	}
	for i, b := range bad {
		if err := b.Validate(testSchema); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestTupleCloneEqual(t *testing.T) {
	a := Tuple{IntValue(1), StringValue("x"), FloatValue(2.5), BoolValue(true)}
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone not equal")
	}
	b[0] = IntValue(2)
	if a.Equal(b) {
		t.Fatal("mutated clone still equal")
	}
	if !a[0].Equal(IntValue(1)) {
		t.Fatal("clone aliased original")
	}
	if a.Equal(Tuple{IntValue(1)}) {
		t.Fatal("length mismatch reported equal")
	}
}

func TestTupleKeyDistinguishesTypes(t *testing.T) {
	a := Tuple{IntValue(1)}
	b := Tuple{StringValue("1")}
	if a.Key(0) == b.Key(0) {
		t.Fatal("int64(1) and \"1\" keys collide")
	}
	c := Tuple{FloatValue(1.0)}
	if a.Key(0) == c.Key(0) {
		t.Fatal("int64(1) and float64(1) keys collide")
	}
	d := Tuple{BoolValue(true)}
	e := Tuple{BoolValue(false)}
	if d.Key(0) == e.Key(0) {
		t.Fatal("bool keys collide")
	}
}

func TestTupleKeyNoConcatenationAmbiguity(t *testing.T) {
	// ("ab","c") must not collide with ("a","bc").
	a := Tuple{StringValue("ab"), StringValue("c")}
	b := Tuple{StringValue("a"), StringValue("bc")}
	if a.Key(0, 1) == b.Key(0, 1) {
		t.Fatal("string concatenation ambiguity in Key")
	}
}

// TestTupleKeyHashMatchesKey holds KeyHash to its contract: bit for bit
// the FNV-1a hash of the key string, for every value kind Key renders,
// without building that string.
func TestTupleKeyHashMatchesKey(t *testing.T) {
	row := Tuple{
		IntValue(0), IntValue(-1), IntValue(int64(math.MinInt64)), IntValue(int64(1<<53 + 1)), IntValue(int64(math.MaxInt64)),
		FloatValue(0.0), FloatValue(math.Copysign(0, -1)), FloatValue(math.NaN()), FloatValue(1e300), FloatValue(-2.5e-300), FloatValue(math.Inf(1)), FloatValue(math.MaxFloat64), FloatValue(-math.MaxFloat64),
		StringValue(""), StringValue("plain"), StringValue("naïve — 多字节"), StringValue("a|b:c"), StringValue("12:34|"), StringValue(strings.Repeat("x", 300)),
		BoolValue(true), BoolValue(false),
		{},
	}
	for pos, v := range row {
		if got, want := row.KeyHash(pos), fnv32(row.Key(pos)); got != want {
			t.Errorf("KeyHash of %v = %#x, fnv32(Key) = %#x", v, got, want)
		}
	}
	for _, pos := range []int{3, 8, 15, 19} { // int64, float64, string, bool
		if n := testing.AllocsPerRun(100, func() { row.KeyHash(pos) }); n != 0 {
			t.Errorf("KeyHash of %v allocates %v objects; a key must allocate none", row[pos], n)
		}
	}
}

// TestTupleAccessors holds each accessor to its kind: every other kind
// panics, as the Must* methods it replaced did.
func TestTupleAccessors(t *testing.T) {
	tp := Tuple{IntValue(7), StringValue("hi"), FloatValue(3.5), BoolValue(true)}
	read := []func(Value){
		func(v Value) { v.Int() }, func(v Value) { v.Str() },
		func(v Value) { v.Float() }, func(v Value) { v.Bool() },
	}
	for i, get := range read {
		for j, v := range tp {
			panicked := func() (p bool) {
				defer func() { p = recover() != nil }()
				get(v)
				return false
			}()
			if panicked != (i != j) {
				t.Errorf("accessor %d on %s cell: panicked = %v", i, v.Kind(), panicked)
			}
		}
	}
}

func TestTupleMustAccessors(t *testing.T) {
	tp := Tuple{IntValue(7), StringValue("hi"), FloatValue(3.5), BoolValue(true)}
	if tp[0].Int() != 7 || tp[1].Str() != "hi" || tp[2].Float() != 3.5 || !tp[3].Bool() {
		t.Fatal("must accessors wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tp[1].Int()
}
