package reltest

import (
	"math"
	"testing"

	"repro/internal/relation"
)

// TestEqualUnordered holds the multiset semantics: order does not
// matter, counts do, every NaN is one value and -0 is not +0.
func TestEqualUnordered(t *testing.T) {
	s := relation.MustSchema(relation.Field{Name: "x", Type: relation.Int}, relation.Field{Name: "f", Type: relation.Float})
	table := func(rows ...relation.Tuple) *relation.Table {
		tbl := relation.NewTable(s)
		for _, r := range rows {
			MustAppend(tbl, r)
		}
		return tbl
	}
	row := func(x int64, f float64) relation.Tuple {
		return relation.Tuple{relation.IntValue(x), relation.FloatValue(f)}
	}
	nan1, nan2 := math.NaN(), math.Float64frombits(0x7ff8_0000_0000_0001)
	for _, c := range []struct {
		name string
		a, b *relation.Table
		want bool
	}{
		{"reordered", table(row(1, 0), row(2, 0)), table(row(2, 0), row(1, 0)), true},
		{"counts differ", table(row(1, 0), row(1, 0), row(2, 0)), table(row(1, 0), row(2, 0), row(2, 0)), false},
		{"NaNs are one value", table(row(1, nan1)), table(row(1, nan2)), true},
		{"-0 is not +0", table(row(1, math.Copysign(0, -1))), table(row(1, 0)), false},
		{"lengths differ", table(row(1, 0)), table(row(1, 0), row(1, 0)), false},
	} {
		if got := EqualUnordered(c.a, c.b); got != c.want {
			t.Errorf("%s: EqualUnordered = %v, want %v", c.name, got, c.want)
		}
	}
}
