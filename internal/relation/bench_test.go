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
		left.AppendUnchecked(Tuple{int64(i % (n / 4)), fmt.Sprintf("row-%d", i)})
		right.AppendUnchecked(Tuple{int64(i % (n / 2)), float64(i)})
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
	j, err := NewJoiner(left.Schema(), right, "k", "k", Inner, 1)
	if err != nil {
		b.Fatal(err)
	}
	batch := left.Rows()[:2048]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := j.ProbeRows(nil, batch); len(out) == 0 {
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
	t := Tuple{int64(42), "a reasonably sized string payload", 3.14159, true}
	buf := make([]byte, 0, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = EncodeTuple(buf[:0], t)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeTuple(b *testing.B) {
	t := Tuple{int64(42), "a reasonably sized string payload", 3.14159, true}
	enc, err := EncodeTuple(nil, t)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeTuple(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeTuplePooled(b *testing.B) {
	t := Tuple{int64(42), "a reasonably sized string payload", 3.14159, true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc := GetEncoder()
		if _, err := enc.EncodeTuple(t); err != nil {
			b.Fatal(err)
		}
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
	t := Tuple{int64(42), "a reasonably sized string payload", 3.14159, true}
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
