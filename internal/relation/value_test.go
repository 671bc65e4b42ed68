package relation

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"
)

var sinkValue Value

// TestValueCell pins what the cell is for: 16 bytes, the size of the
// any it replaced; == does not compile; building one allocates nothing
// that a boxed cell did; and a string cell keeps the bytes it shares
// alive through the collector.
func TestValueCell(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 16 {
		t.Errorf("unsafe.Sizeof(Value{}) = %d, want 16", got)
	}
	if reflect.TypeOf(Value{}).Comparable() {
		t.Error("Value is comparable; == would compare string pointers")
	}

	s, n := strings.Repeat("payload ", 4), int64(1000) // not constants
	for _, c := range []struct {
		name  string
		build func() Value
	}{
		{"string", func() Value { return StringValue(s) }},
		{"substring", func() Value { return StringValue(s[3:9]) }},
		{"int ≥ 256", func() Value { return IntValue(n) }},
		{"float", func() Value { return FloatValue(float64(n) / 3) }},
		{"bool", func() Value { return BoolValue(n > 0) }},
	} {
		if allocs := testing.AllocsPerRun(100, func() { sinkValue = c.build() }); allocs != 0 {
			t.Errorf("%s cell: %v allocations, want 0", c.name, allocs)
		}
	}

	// Cells over substrings of a string nothing else references: the
	// cells alone must keep its bytes alive through collections, and
	// fresh allocations of the same size must not land on them.
	base := []byte(strings.Repeat("abcdefghij", 100))
	src := string(base)
	clear(base)
	tbl := NewTable(MustSchema(Field{"a", String}, Field{"b", String}))
	var want []string
	for i := 0; i+20 <= len(src); i += 20 {
		tbl.AppendUnchecked(Tuple{StringValue(src[i : i+7]), StringValue(src[i+7 : i+20])})
		want = append(want, strings.Clone(src[i:i+7]), strings.Clone(src[i+7:i+20]))
	}
	src = ""
	for i := 0; i < 3; i++ {
		runtime.GC()
		for j := 0; j < 64; j++ {
			junk := make([]byte, 1000)
			for k := range junk {
				junk[k] = 'X'
			}
			sinkValue = StringValue(string(junk))
		}
	}
	for i, r := range tbl.Rows() {
		if r[0].Str() != want[2*i] || r[1].Str() != want[2*i+1] {
			t.Fatalf("row %d reads %q %q after GC, want %q %q", i, r[0].Str(), r[1].Str(), want[2*i], want[2*i+1])
		}
	}
}
