package relation

import (
	"fmt"
	"testing"
)

func benchTables(n int) (*Table, *Table) {
	ls := MustSchema(Field{"k", Int}, Field{"payload", String})
	rs := MustSchema(Field{"k", Int}, Field{"weight", Float})
	left, right := NewTable(ls), NewTable(rs)
	for i := 0; i < n; i++ {
		left.AppendUnchecked(Tuple{IntValue(int64(i % (n / 4))), StringValue(fmt.Sprintf("row-%d", i))})
		right.AppendUnchecked(Tuple{IntValue(int64(i % (n / 2))), FloatValue(float64(i))})
	}
	return left, right
}

func BenchmarkHashJoin(b *testing.B) {
	left, right := benchTables(100000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := HashJoin(left, right, "k", "k", Inner); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJoinerProbe measures the steady-state cost the dataflow
// operator now pays per probe batch: the hash table is built once and
// reused, instead of rebuilt per batch as before.
func BenchmarkJoinerProbe(b *testing.B) {
	left, right := benchTables(100000)
	j, err := NewJoiner(left.Schema(), right, "k", "k", Inner)
	if err != nil {
		b.Fatal(err)
	}
	batch := left.Rows()[:2048]
	var (
		a     Arena
		out   []Tuple
		heads []int32
	)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out, heads, _, _ = j.ProbeRows(&a, heads, batch, nil); len(out) == 0 {
			b.Fatal("empty probe result")
		}
	}
}

func BenchmarkGroupBy(b *testing.B) {
	left, _ := benchTables(10000)
	aggs := []Aggregate{{Func: Count, As: "n"}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := GroupBy(left, []string{"k"}, aggs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeTuple(b *testing.B) {
	t := Tuple{IntValue(42), StringValue("a reasonably sized string payload"), FloatValue(3.14159), BoolValue(true)}
	buf := make([]byte, 0, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = EncodeTuple(buf[:0], t)
	}
}

func BenchmarkDecodeTuple(b *testing.B) {
	t := Tuple{IntValue(42), StringValue("a reasonably sized string payload"), FloatValue(3.14159), BoolValue(true)}
	enc := EncodeTuple(nil, t)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeTuple(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeTuplePooled(b *testing.B) {
	t := Tuple{IntValue(42), StringValue("a reasonably sized string payload"), FloatValue(3.14159), BoolValue(true)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc := GetEncoder()
		enc.EncodeTuple(t)
		enc.Release()
	}
}

func BenchmarkEncodeTable(b *testing.B) {
	left, _ := benchTables(10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeTable(left); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDigest(b *testing.B) {
	left, _ := benchTables(10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if Digest(left) == 0 {
			b.Fatal("zero digest")
		}
	}
}

func BenchmarkEncodedSize(b *testing.B) {
	t := Tuple{IntValue(42), StringValue("a reasonably sized string payload"), FloatValue(3.14159), BoolValue(true)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if EncodedSize(t) == 0 {
			b.Fatal("zero size")
		}
	}
}

func BenchmarkSortBy(b *testing.B) {
	left, _ := benchTables(10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := left.Clone()
		b.StartTimer()
		if err := c.SortBy("payload", "k"); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
	}
}

// BenchmarkJoinBuildStrings builds the index over 2,048 string keys
// shaped like the DICE workflow's "case|T<n>" entity keys, which differ
// only in their last bytes: a slot hash whose top bits barely see those
// bytes crowds them into a few runs of slots.
func BenchmarkJoinBuildStrings(b *testing.B) {
	s := MustSchema(Field{"ekey", String}, Field{"start", Int})
	right := NewTable(s)
	for i := 0; i < 2048; i++ {
		right.AppendUnchecked(Tuple{StringValue(fmt.Sprintf("case-%04d|T%d", i/8, i%8+1)), IntValue(int64(i))})
	}
	plan, err := PlanJoin(MustSchema(Field{"k", String}), s, "k", "ekey")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan.Build(Inner, right.Rows())
	}
}
