package dataflow

import "testing"

// specSeeds are the JSON plans both spec fuzz targets start from: the
// parser's own seeds, then one plan per rule WF002–WF006 and WF008.
var specSeeds = []string{
	demoSpec,
	`{"name":"x","operators":[],"links":[]}`,
	`{}`,
	`not json`,
	`{"name":"x","operators":[{"id":"a","type":"source","schema":[{"name":"v","type":"int"}],"data":[[1]]},{"id":"b","type":"sink"}],"links":[{"from":"a","to":"b"}]}`,
	// WF002: the join's build port dangles.
	`{"name":"arity","operators":[{"id":"a","type":"source","schema":[{"name":"k","type":"int"}],"data":[[1]]},{"id":"j","type":"join","buildKey":"k","probeKey":"k"},{"id":"o","type":"sink"}],"links":[{"from":"a","to":"j","port":1},{"from":"j","to":"o"}]}`,
	// WF003: a union feeds a parallel group-by that feeds it back, beside
	// an unconnected source. A cyclic plan lists WF002 and WF008 as found,
	// then the cycle, and no WF006.
	`{"name":"cycle","operators":[{"id":"a","type":"source","schema":[{"name":"k","type":"int"}],"data":[[1]]},{"id":"z","type":"source","schema":[{"name":"k","type":"int"}]},{"id":"u","type":"union"},{"id":"g","type":"groupby","keys":["k"],"aggregations":[{"func":"count","as":"n"}],"parallelism":2},{"id":"o","type":"sink"}],"links":[{"from":"a","to":"u"},{"from":"u","to":"g"},{"from":"g","to":"u","port":1},{"from":"g","to":"o"}]}`,
	// WF004: the filter names a column the source lacks.
	`{"name":"schema","operators":[{"id":"a","type":"source","schema":[{"name":"k","type":"int"}],"data":[[1]]},{"id":"f","type":"filter","condition":"z > 0"},{"id":"o","type":"sink"}],"links":[{"from":"a","to":"f"},{"from":"f","to":"o"}]}`,
	// WF005: a hash edge keyed on a missing column.
	`{"name":"hashkey","operators":[{"id":"a","type":"source","schema":[{"name":"k","type":"int"}],"data":[[1]]},{"id":"f","type":"filter","condition":"k > 0","parallelism":2},{"id":"o","type":"sink"}],"links":[{"from":"a","to":"f","partition":"hash","key":"z"},{"from":"f","to":"o"}]}`,
	// WF006: a sort at parallelism 4, fed by hash so no WF008 joins it.
	`{"name":"parsort","operators":[{"id":"a","type":"source","schema":[{"name":"k","type":"int"}],"data":[[2],[1]]},{"id":"s","type":"sort","sortBy":["k"],"parallelism":4},{"id":"o","type":"sink"}],"links":[{"from":"a","to":"s","partition":"hash","key":"k"},{"from":"s","to":"o"}]}`,
	// WF008 (with WF006): a parallel group-by fed round-robin, in a
	// join plan whose probe side is broadcast-built and clean.
	`{"name":"ckpt","operators":[{"id":"a","type":"source","schema":[{"name":"k","type":"int"}],"data":[[1],[1]]},{"id":"b","type":"source","schema":[{"name":"k","type":"int"},{"name":"v","type":"int"}],"data":[[1,2]]},{"id":"j","type":"join","buildKey":"k","probeKey":"k","parallelism":2},{"id":"g","type":"groupby","keys":["k"],"aggregations":[{"func":"count","as":"n"}],"parallelism":2},{"id":"o","type":"sink"}],"links":[{"from":"b","to":"j","partition":"broadcast"},{"from":"a","to":"j","port":1},{"from":"j","to":"g"},{"from":"g","to":"o"}]}`,
}

// FuzzParseSpec checks the JSON workflow compiler never panics: any
// input either fails to parse, fails to build, or yields a valid
// workflow.
func FuzzParseSpec(f *testing.F) {
	for _, s := range specSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		spec, err := ParseSpec([]byte(input))
		if err != nil {
			return
		}
		w, err := Build(spec)
		if err != nil {
			return
		}
		if err := w.Validate(); err != nil {
			t.Fatalf("Build returned an invalid workflow: %v", err)
		}
	})
}

// FuzzParseCondition checks the condition mini-parser never panics.
func FuzzParseCondition(f *testing.F) {
	f.Add(`age >= 21`)
	f.Add(`name == "ann"`)
	f.Add(``)
	f.Add(`<=`)
	f.Add(`x == ==`)
	f.Fuzz(func(t *testing.T, input string) {
		if _, err := parseCondition(input); err != nil {
			return
		}
	})
}
