package relation_test

import (
	"testing"

	"repro/internal/relation"
	"repro/internal/relation/reltest"
)

func TestMapOp(t *testing.T) {
	in := relation.NewTable(relation.MustSchema(relation.Field{Name: "name", Type: relation.String}))
	reltest.MustAppend(in, relation.Tuple{relation.StringValue("ann")})
	out, err := reltest.Map(in, relation.MustSchema(relation.Field{Name: "upper", Type: relation.String}), func(r relation.Tuple) (relation.Tuple, error) {
		return relation.Tuple{relation.StringValue(r[0].Str() + "!")}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Row(0)[0].Str() != "ann!" {
		t.Fatal("map wrong")
	}
	// Output validation catches bad rows.
	_, err = reltest.Map(in, relation.MustSchema(relation.Field{Name: "x", Type: relation.Int}), func(r relation.Tuple) (relation.Tuple, error) {
		return relation.Tuple{relation.StringValue("not an int")}, nil
	})
	if err == nil {
		t.Fatal("expected validation error")
	}
}
