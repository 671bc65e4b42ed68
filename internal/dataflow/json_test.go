package dataflow

import (
	"context"
	"testing"

	"repro/internal/relation"
)

const demoSpec = `{
  "name": "demo",
  "operators": [
    {"id": "people", "type": "source",
     "schema": [{"name": "name", "type": "string"}, {"name": "age", "type": "int"}, {"name": "city", "type": "string"}],
     "data": [["ann", 34, "sf"], ["bob", 17, "la"], ["cat", 40, "sf"], ["dan", 25, "la"]]},
    {"id": "adults", "type": "filter", "condition": "age >= 21"},
    {"id": "by_city", "type": "groupby", "keys": ["city"],
     "aggregations": [{"func": "count", "as": "n"}, {"func": "avg", "field": "age", "as": "mean_age"}]},
    {"id": "out", "type": "sink"}
  ],
  "links": [
    {"from": "people", "to": "adults"},
    {"from": "adults", "to": "by_city"},
    {"from": "by_city", "to": "out"}
  ]
}`

func TestBuildAndRunSpec(t *testing.T) {
	spec, err := ParseSpec([]byte(demoSpec))
	if err != nil {
		t.Fatal(err)
	}
	w, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.Run(context.Background(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Tables["out"]
	if out.Len() != 2 {
		t.Fatalf("groups = %d", out.Len())
	}
	// sf: ann(34)+cat(40); la: dan(25).
	for _, r := range out.Rows() {
		switch r[0].Str() {
		case "sf":
			if r[1].Int() != 2 || r[2].Float() != 37 {
				t.Fatalf("sf group = %v", r)
			}
		case "la":
			if r[1].Int() != 1 || r[2].Float() != 25 {
				t.Fatalf("la group = %v", r)
			}
		default:
			t.Fatalf("unexpected group %v", r)
		}
	}
}

func TestSpecJoinUnionSortLimit(t *testing.T) {
	spec := `{
	  "name": "join-demo",
	  "operators": [
	    {"id": "users", "type": "source",
	     "schema": [{"name": "uid", "type": "int"}, {"name": "name", "type": "string"}],
	     "data": [[1, "ann"], [2, "bob"]]},
	    {"id": "orders", "type": "source",
	     "schema": [{"name": "oid", "type": "int"}, {"name": "uid", "type": "int"}],
	     "data": [[10, 1], [11, 2], [12, 1], [13, 9]]},
	    {"id": "j", "type": "join", "buildKey": "uid", "probeKey": "uid", "joinType": "left"},
	    {"id": "s", "type": "sort", "sortBy": ["oid"]},
	    {"id": "l", "type": "limit", "limit": 3},
	    {"id": "out", "type": "sink"}
	  ],
	  "links": [
	    {"from": "users", "to": "j", "port": 0},
	    {"from": "orders", "to": "j", "port": 1},
	    {"from": "j", "to": "s"},
	    {"from": "s", "to": "l"},
	    {"from": "l", "to": "out"}
	  ]
	}`
	s, err := ParseSpec([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	w, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.Run(context.Background(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Tables["out"]
	if out.Len() != 3 {
		t.Fatalf("rows = %d", out.Len())
	}
	if out.Row(0)[0].Int() != 10 || out.Row(0)[2].Str() != "ann" {
		t.Fatalf("first row = %v", out.Row(0))
	}
}

func TestParseSpecRejectsUnknownFields(t *testing.T) {
	if _, err := ParseSpec([]byte(`{"name":"x","bogus":1}`)); err == nil {
		t.Fatal("expected error for unknown field")
	}
}

func TestBuildErrors(t *testing.T) {
	cases := []string{
		`{"operators":[],"links":[]}`, // no name
		`{"name":"x","operators":[{"id":"","type":"sink"}]}`,
		`{"name":"x","operators":[{"id":"a","type":"sink"},{"id":"a","type":"sink"}]}`,
		`{"name":"x","operators":[{"id":"a","type":"teleport"}]}`,
		`{"name":"x","operators":[{"id":"a","type":"source"}]}`, // no schema
		`{"name":"x","operators":[{"id":"a","type":"filter","condition":"no operator here"}]}`,
		`{"name":"x","operators":[{"id":"a","type":"sink"}],"links":[{"from":"zz","to":"a"}]}`,
		`{"name":"x","operators":[{"id":"a","type":"sink"}],"links":[{"from":"a","to":"zz"}]}`,
		`{"name":"x","operators":[{"id":"a","type":"source","schema":[{"name":"v","type":"int"}],"data":[[1]]},{"id":"b","type":"sink"}],"links":[{"from":"a","to":"b","partition":"zigzag"}]}`,
		`{"name":"x","operators":[{"id":"a","type":"source","schema":[{"name":"v","type":"int"}],"data":[[1]]},{"id":"b","type":"sink"}],"links":[{"from":"a","to":"b","partition":"hash"}]}`,
		`{"name":"x","operators":[{"id":"a","type":"source","schema":[{"name":"v","type":"wat"}],"data":[]}]}`,
		`{"name":"x","operators":[{"id":"a","type":"source","schema":[{"name":"v","type":"int"}],"data":[[1.5]]}]}`,
		`{"name":"x","operators":[{"id":"a","type":"groupby","aggregations":[{"func":"median","as":"m"}]}]}`,
		`{"name":"x","operators":[{"id":"a","type":"join","buildKey":"k","probeKey":"k","joinType":"outer"}]}`,
		`{"name":"x","operators":[{"id":"a","type":"filter","condition":"v == 1","language":"cobol"}]}`,
	}
	for i, c := range cases {
		spec, err := ParseSpec([]byte(c))
		if err != nil {
			continue // parse-level rejection is fine too
		}
		if _, err := Build(spec); err == nil {
			t.Errorf("case %d: expected build error", i)
		}
	}
}

func TestConditionParsing(t *testing.T) {
	good := map[string]string{
		`age >= 21`:     "int",
		`price < 9.5`:   "float",
		`name == "ann"`: "string",
		`ok != true`:    "bool",
		`count <= 5`:    "int",
		`score > 0.25`:  "float",
		`city == "s f"`: "string",
		`flag == false`: "bool",
		`value != 10`:   "int",
		`delta >= -3`:   "int",
	}
	for cond := range good {
		if _, err := parseCondition(cond); err != nil {
			t.Errorf("parseCondition(%q): %v", cond, err)
		}
	}
	bad := []string{"", "age", "age >=", ">= 21", "age ~ 21", "age == zebra"}
	for _, cond := range bad {
		if _, err := parseCondition(cond); err == nil {
			t.Errorf("parseCondition(%q): expected error", cond)
		}
	}
}

func TestConditionBindTypeChecks(t *testing.T) {
	s := relation.MustSchema(
		relation.Field{Name: "age", Type: relation.Int},
		relation.Field{Name: "name", Type: relation.String},
		relation.Field{Name: "ok", Type: relation.Bool},
		relation.Field{Name: "score", Type: relation.Float},
	)
	cases := []struct {
		cond string
		ok   bool
	}{
		{`age >= 21`, true},
		{`name == "x"`, true},
		{`ok == true`, true},
		{`score < 1.5`, true},
		{`score < 1`, true},     // int literals coerce onto float columns
		{`age == "x"`, false},   // string literal on int column
		{`ok < true`, false},    // ordering on bool
		{`missing == 1`, false}, // unknown field
		{`name >= 5`, false},    // numeric on string
		{`age == 1.5`, false},   // float literal on int column is rejected at parse+bind
	}
	for _, c := range cases {
		cond, err := parseCondition(c.cond)
		if err != nil {
			if c.ok {
				t.Errorf("%q: parse failed: %v", c.cond, err)
			}
			continue
		}
		_, err = cond.bind(s)
		if (err == nil) != c.ok {
			t.Errorf("%q: bind err=%v, want ok=%v", c.cond, err, c.ok)
		}
	}
}
