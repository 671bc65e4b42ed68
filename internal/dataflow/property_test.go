package dataflow

import (
	"context"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/cost"
	"repro/internal/relation"
	"repro/internal/xrand"
)

// The property: any randomly composed chain of builtin operators,
// executed by the pipelined parallel engine, produces exactly the rows
// of the same chain applied directly with the relation package.

type chainStep struct {
	name  string
	apply func(*relation.Table) (*relation.Table, error)
	op    func(r *xrand.Rand) Operator
	// parallelizable marks ops that may run with >1 worker.
	parallelizable bool
}

// randomChain builds a random but always-valid operator chain over the
// intTable schema {id:int, v:int}.
func randomChain(r *xrand.Rand) []chainStep {
	var steps []chainStep
	n := 1 + r.Intn(4)
	for i := 0; i < n; i++ {
		switch r.Intn(4) {
		case 0:
			k := int64(r.Intn(10))
			steps = append(steps, chainStep{
				name: fmt.Sprintf("filter-v<%d", k),
				apply: func(t *relation.Table) (*relation.Table, error) {
					return relation.Filter(t, func(row relation.Tuple) bool { return row[1].Int() < k }), nil
				},
				op: func(*xrand.Rand) Operator {
					return NewFilter(fmt.Sprintf("filter%d", i), cost.Python, func(row relation.Tuple) bool {
						return row[1].Int() < k
					})
				},
				parallelizable: true,
			})
		case 1:
			steps = append(steps, chainStep{
				name: "project",
				apply: func(t *relation.Table) (*relation.Table, error) {
					return relation.Project(t, "id", "v")
				},
				op: func(*xrand.Rand) Operator {
					return NewProject(fmt.Sprintf("project%d", i), cost.Python, "id", "v")
				},
				parallelizable: true,
			})
		case 2:
			add := int64(1 + r.Intn(5))
			steps = append(steps, chainStep{
				name: fmt.Sprintf("map+%d", add),
				apply: func(t *relation.Table) (*relation.Table, error) {
					return relation.Map(t, t.Schema(), func(row relation.Tuple) (relation.Tuple, error) {
						return relation.Tuple{relation.IntValue(row[0].Int()), relation.IntValue(row[1].Int() + add)}, nil
					})
				},
				op: func(*xrand.Rand) Operator {
					s := relation.MustSchema(
						relation.Field{Name: "id", Type: relation.Int},
						relation.Field{Name: "v", Type: relation.Int},
					)
					return NewMap(fmt.Sprintf("map%d", i), cost.Python, s, func(row relation.Tuple, out *Rows) error {
						out.Emit(relation.IntValue(row[0].Int()), relation.IntValue(row[1].Int()+add))
						return nil
					})
				},
				parallelizable: true,
			})
		default:
			steps = append(steps, chainStep{
				name: "sort",
				apply: func(t *relation.Table) (*relation.Table, error) {
					c := t.Clone()
					if err := c.SortBy("v", "id"); err != nil {
						return nil, err
					}
					return c, nil
				},
				op: func(*xrand.Rand) Operator {
					return NewSort(fmt.Sprintf("sort%d", i), cost.Python, "v", "id")
				},
				parallelizable: false,
			})
		}
	}
	return steps
}

func TestPropertyRandomChainsMatchDirectEvaluation(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		rows := 1 + r.Intn(400)
		in := intTable(rows)
		steps := randomChain(r)

		// Direct evaluation.
		want := in
		for _, s := range steps {
			var err error
			want, err = s.apply(want)
			if err != nil {
				t.Logf("seed %d: direct eval failed at %s: %v", seed, s.name, err)
				return false
			}
		}

		// Engine evaluation, with random parallelism where legal.
		w := New("property")
		prev := w.Source("src", in)
		for _, s := range steps {
			par := 1
			if s.parallelizable && r.Bool(0.5) {
				par = 1 + r.Intn(4)
			}
			id := w.Op(s.op(r), WithParallelism(par))
			w.Connect(prev, id, 0, RoundRobin())
			prev = id
		}
		snk := w.Sink("out")
		w.Connect(prev, snk, 0, RoundRobin())

		res, err := w.Run(context.Background(), Config{})
		if err != nil {
			t.Logf("seed %d: engine failed: %v", seed, err)
			return false
		}
		if !res.Tables["out"].EqualUnordered(want) {
			t.Logf("seed %d: mismatch (%d engine rows, %d direct rows)", seed, res.Tables["out"].Len(), want.Len())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySimTimePositiveAndDeterministic(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		in := intTable(1 + r.Intn(200))
		steps := randomChain(r)
		build := func() *Workflow {
			w := New("det")
			prev := w.Source("src", in)
			for _, s := range steps {
				id := w.Op(s.op(r))
				w.Connect(prev, id, 0, RoundRobin())
				prev = id
			}
			w.Connect(prev, w.Sink("out"), 0, RoundRobin())
			return w
		}
		r1, err := build().Run(context.Background(), Config{})
		if err != nil {
			return false
		}
		r2, err := build().Run(context.Background(), Config{})
		if err != nil {
			return false
		}
		return r1.SimSeconds > 0 && r1.SimSeconds == r2.SimSeconds
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
