package dataflow

import (
	"fmt"

	"repro/internal/cost"
	"repro/internal/relation"
)

// UnionOp concatenates two streams with identical schemas. Both ports
// are non-blocking, so rows pass through as they arrive (port 0 is
// drained before port 1 within each worker, but neither gates the
// other's upstream).
type UnionOp struct {
	base
	Work cost.Work // per input tuple
}

// NewUnion returns a two-input union operator.
func NewUnion(name string, lang cost.Language) *UnionOp {
	return &UnionOp{
		base: base{Desc{Name: name, Language: lang, Ports: 2, BlockingPorts: []bool{false, false}, Stateless: true}},
		Work: cost.Work{Interp: 0.8e-6, Mem: 0.2e-6},
	}
}

// OutputSchema requires both inputs to share a schema and passes it
// through.
func (o *UnionOp) OutputSchema(in []*relation.Schema) (*relation.Schema, error) {
	if len(in) != 2 || in[0] == nil || in[1] == nil {
		return nil, fmt.Errorf("dataflow: %s: union needs two inputs", o.desc.Name)
	}
	if !in[0].Equal(in[1]) {
		return nil, fmt.Errorf("dataflow: %s: union schema mismatch: [%s] vs [%s]", o.desc.Name, in[0], in[1])
	}
	return in[0], nil
}

// NewInstance returns a pass-through worker.
func (o *UnionOp) NewInstance(ExecCtx, []*relation.Schema) (Instance, error) {
	return &unionInstance{op: o}, nil
}

type unionInstance struct{ op *UnionOp }

func (ui *unionInstance) Process(ec ExecCtx, _ int, rows []relation.Tuple) ([]relation.Tuple, error) {
	ec.AddWork(ui.op.Work.Scale(float64(len(rows))))
	return rows, nil
}
func (ui *unionInstance) EndPort(ExecCtx, int) ([]relation.Tuple, error) { return nil, nil }
