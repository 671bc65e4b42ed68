package dataflow

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/cost"
	"repro/internal/relation"
)

// Default per-tuple work constants, in Python-seconds. These are the
// engine-level defaults; tasks calibrate their own operator costs where
// the paper's workloads demand it.
var (
	// DefaultScanWork is charged per tuple by sources.
	DefaultScanWork = cost.Work{Interp: 1.5e-6, Mem: 0.5e-6}
	// DefaultFilterWork is charged per input tuple by Filter.
	DefaultFilterWork = cost.Work{Interp: 2.0e-6, Mem: 0.3e-6}
	// DefaultProjectWork is charged per input tuple by Project.
	DefaultProjectWork = cost.Work{Interp: 1.2e-6, Mem: 0.3e-6}
	// DefaultMapWork is charged per input tuple by Map/FlatMap UDFs.
	DefaultMapWork = cost.Work{Interp: 4.0e-6, Mem: 0.5e-6}
	// DefaultBuildWork is charged per build-side tuple by HashJoin.
	DefaultBuildWork = cost.Work{Interp: 3.0e-6, Mem: 1.0e-6}
	// DefaultProbeWork is charged per probe-side tuple by HashJoin,
	// before the size-dependent memory term.
	DefaultProbeWork = cost.Work{Interp: 3.5e-6, Mem: 0.8e-6}
	// DefaultGroupWork is charged per input tuple by GroupBy.
	DefaultGroupWork = cost.Work{Interp: 3.0e-6, Mem: 0.8e-6}
	// DefaultSortWorkPerCmp is charged per comparison by Sort.
	DefaultSortWorkPerCmp = cost.Work{Interp: 0.4e-6, Mem: 0.1e-6}
)

// base provides Desc plumbing for the builtin operators.
type base struct {
	desc Desc
}

func (b base) Desc() Desc { return b.desc }

// ---------------------------------------------------------------------------
// Filter

// FilterOp keeps tuples satisfying a predicate.
type FilterOp struct {
	base
	Keep relation.Predicate
	Work cost.Work // per input tuple
}

// NewFilter returns a filter operator named name.
func NewFilter(name string, lang cost.Language, keep relation.Predicate) *FilterOp {
	return &FilterOp{
		base: base{Desc{Name: name, Language: lang, Ports: 1, BlockingPorts: []bool{false}, Stateless: true}},
		Keep: keep,
		Work: DefaultFilterWork,
	}
}

// OutputSchema passes the input schema through.
func (o *FilterOp) OutputSchema(in []*relation.Schema) (*relation.Schema, error) {
	if len(in) != 1 || in[0] == nil {
		return nil, fmt.Errorf("dataflow: %s: filter needs exactly one input", o.desc.Name)
	}
	return in[0], nil
}

// NewInstance returns a stateless filter worker.
func (o *FilterOp) NewInstance(ExecCtx, []*relation.Schema) (Instance, error) {
	return &filterInstance{op: o}, nil
}

type filterInstance struct{ op *FilterOp }

func (fi *filterInstance) Process(ec ExecCtx, _ int, rows []relation.Tuple) ([]relation.Tuple, error) {
	dropped := 0
	if c, ok := ec.(*execCtx); ok {
		dropped = c.dropped
	}
	return fi.process(ec, rows, dropped), nil
}
func (fi *filterInstance) EndPort(ExecCtx, int) ([]relation.Tuple, error) { return nil, nil }

// process filters a batch that arrived with dropped more rows an
// upstream join judged against this filter's predicate and did not
// build. All of them are charged, in one call, so the work sum has the
// bits it has when the join builds every row.
func (fi *filterInstance) process(ec ExecCtx, rows []relation.Tuple, dropped int) []relation.Tuple {
	ec.AddWork(fi.op.Work.Scale(float64(len(rows) + dropped)))
	return keepRows(ec.Out(), rows, fi.op.Keep)
}

// keepRows returns the rows keep accepts, in order. A batch it accepts
// whole is handed on as it is, as LimitOp hands on its input; from a
// mixed batch the survivors are copied into a batch of out. When out's
// chunk is full at a kept row it is sized for the rows still to come,
// so a batch that keeps nothing allocates nothing.
func keepRows(out *relation.Arena, rows []relation.Tuple, keep relation.Predicate) []relation.Tuple {
	cut := 0 // rows[:cut] are kept; rows[cut], if any, is the first rejected
	for cut < len(rows) && keep(rows[cut]) {
		cut++
	}
	if cut == len(rows) {
		return rows
	}
	for i, r := range rows {
		if i < cut || i > cut && keep(r) {
			if !out.Fits(1, 0) {
				out.Reserve(len(rows)-i, 0)
			}
			out.Append(r)
		}
	}
	return out.Batch()
}

// ---------------------------------------------------------------------------
// Project

// ProjectOp keeps only the named columns.
type ProjectOp struct {
	base
	Names []string
	Work  cost.Work
}

// NewProject returns a projection operator.
func NewProject(name string, lang cost.Language, names ...string) *ProjectOp {
	return &ProjectOp{
		base:  base{Desc{Name: name, Language: lang, Ports: 1, BlockingPorts: []bool{false}, Stateless: true}},
		Names: names,
		Work:  DefaultProjectWork,
	}
}

// OutputSchema projects the input schema.
func (o *ProjectOp) OutputSchema(in []*relation.Schema) (*relation.Schema, error) {
	if len(in) != 1 || in[0] == nil {
		return nil, fmt.Errorf("dataflow: %s: project needs exactly one input", o.desc.Name)
	}
	return in[0].Project(o.Names...)
}

// NewInstance returns a projection worker with the named columns'
// positions in its input.
func (o *ProjectOp) NewInstance(_ ExecCtx, in []*relation.Schema) (Instance, error) {
	pi := &projectInstance{op: o, pos: make([]int, len(o.Names))}
	for i, n := range o.Names {
		p := in[0].IndexOf(n)
		if p < 0 {
			return nil, fmt.Errorf("dataflow: %s: unknown column %q", o.desc.Name, n)
		}
		pi.pos[i] = p
	}
	return pi, nil
}

type projectInstance struct {
	op  *ProjectOp
	pos []int
}

func (pi *projectInstance) Process(ec ExecCtx, _ int, rows []relation.Tuple) ([]relation.Tuple, error) {
	ec.AddWork(pi.op.Work.Scale(float64(len(rows))))
	width, out := len(pi.pos), ec.Out()
	out.Reserve(len(rows), len(rows)*width)
	for _, r := range rows {
		row := out.Row(width)
		for k, p := range pi.pos {
			row[k] = r[p]
		}
	}
	return out.Batch(), nil
}
func (pi *projectInstance) EndPort(ExecCtx, int) ([]relation.Tuple, error) { return nil, nil }

// ---------------------------------------------------------------------------
// Map / FlatMap (UDF)

// MapFunc transforms one tuple into zero or more tuples, emitted into
// out. A cell that passes through unchanged is emitted as in[i]; a cell
// the function inspects is read with its kind's accessor (in[i].Str())
// and a new one built with its constructor (relation.StringValue).
type MapFunc func(in relation.Tuple, out *Rows) error

// Rows collects what a MapFunc emits into its worker's output arena
// (ExecCtx.Out) and hands out one batch per input batch, so a batch
// costs no objects of its own once the arena's chunks have grown
// (relation.Arena has the rules).
type Rows struct {
	arena *relation.Arena
	ec    ExecCtx
	width int // cells per tuple, from the operator's output schema
	rest  int // input rows of the batch not yet mapped, the current one included
	n     int // tuples emitted for the batch so far
}

// Emit appends one output tuple holding a copy of vals.
func (r *Rows) Emit(vals ...relation.Value) {
	if !r.arena.Fits(1, len(vals)) {
		// Room for one tuple per input row still to come — or, when a
		// flat-map has already outrun its batch, for as many tuples again
		// as it has emitted.
		n := max(r.rest, r.n)
		r.arena.Reserve(n, n*len(vals))
	}
	copy(r.arena.Row(len(vals)), vals)
	r.n++
}

// Grow makes room for n more tuples. A MapFunc that knows its fan-out
// for a row calls it before emitting, and the row's output is then
// reserved exactly.
func (r *Rows) Grow(n int) { r.arena.Reserve(n, n*r.width) }

// Charge adds data-dependent work for the row being mapped, on top of
// the operator's per-row Work: a MapFunc calls it once per input row,
// before emitting, with a cost it knows from the row.
func (r *Rows) Charge(w cost.Work) { r.ec.AddWork(w) }

// MapOp applies a user-defined function to every tuple — the engine's
// generic Python/Scala UDF operator.
type MapOp struct {
	base
	Out  *relation.Schema
	Fn   MapFunc
	Work cost.Work // per input tuple; Rows.Charge adds what depends on the row
}

// NewMap returns a UDF operator with the given output schema.
func NewMap(name string, lang cost.Language, out *relation.Schema, fn MapFunc) *MapOp {
	return &MapOp{
		base: base{Desc{Name: name, Language: lang, Ports: 1, BlockingPorts: []bool{false}, Stateless: true}},
		Out:  out,
		Fn:   fn,
		Work: DefaultMapWork,
	}
}

// OutputSchema returns the declared output schema.
func (o *MapOp) OutputSchema(in []*relation.Schema) (*relation.Schema, error) {
	if len(in) != 1 || in[0] == nil {
		return nil, fmt.Errorf("dataflow: %s: map needs exactly one input", o.desc.Name)
	}
	return o.Out, nil
}

// NewInstance returns a UDF worker.
func (o *MapOp) NewInstance(ExecCtx, []*relation.Schema) (Instance, error) {
	return &mapInstance{op: o, out: Rows{width: o.Out.Len()}}, nil
}

type mapInstance struct {
	op  *MapOp
	out Rows
}

func (mi *mapInstance) Process(ec ExecCtx, _ int, rows []relation.Tuple) ([]relation.Tuple, error) {
	ec.AddWork(mi.op.Work.Scale(float64(len(rows))))
	mi.out.ec, mi.out.arena, mi.out.n = ec, ec.Out(), 0
	for i, r := range rows {
		mi.out.rest = len(rows) - i
		if err := mi.op.Fn(r, &mi.out); err != nil {
			mi.out.arena.Batch() // drop the failed batch's rows
			return nil, err
		}
	}
	return mi.out.arena.Batch(), nil
}
func (mi *mapInstance) EndPort(ExecCtx, int) ([]relation.Tuple, error) { return nil, nil }

// ---------------------------------------------------------------------------
// HashJoin

// HashJoinOp joins a probe stream (port 1) against a built hash table
// of the build stream (port 0). The build port is blocking. Its probe
// cost includes a memory-bound term that grows with the logarithm of
// the build-side size — probing a table that outgrows the caches costs
// the same in every language, which is the mechanism behind the
// paper's Table I.
type HashJoinOp struct {
	base
	BuildKey, ProbeKey string
	Kind               relation.JoinType
	BuildWork          cost.Work // per build tuple
	ProbeWork          cost.Work // per probe tuple, before the memory term
	// ProbeMemLog is the Mem-seconds added per probe tuple per log2 of
	// the build-side row count.
	ProbeMemLog float64
	// outPerm and outSchema, when set by the optimizer's join-swap
	// rewrite, re-order the physical output columns back into the
	// pre-swap layout so downstream operators see the original schema.
	// outPerm[k] is the physical column emitted at logical position k.
	outPerm   []int
	outSchema *relation.Schema

	// plan is the join planned for planned's inputs and keys, once for
	// every instance of the operator, fused or not.
	mu      sync.Mutex
	plan    *relation.JoinPlan
	planned planKey
}

// planKey is what a join plan is derived from.
type planKey struct {
	build, probe       *relation.Schema
	buildKey, probeKey string
}

// NewHashJoin returns a hash-join operator. Port 0 is the build side,
// port 1 the probe side.
func NewHashJoin(name string, lang cost.Language, buildKey, probeKey string, kind relation.JoinType) *HashJoinOp {
	return &HashJoinOp{
		base:        base{Desc{Name: name, Language: lang, Ports: 2, BlockingPorts: []bool{true, false}}},
		BuildKey:    buildKey,
		ProbeKey:    probeKey,
		Kind:        kind,
		BuildWork:   DefaultBuildWork,
		ProbeWork:   DefaultProbeWork,
		ProbeMemLog: 0.15e-6,
	}
}

// OutputSchema concatenates probe columns with build columns (minus the
// build key), matching relation.HashJoin with the probe side on the
// left.
func (o *HashJoinOp) OutputSchema(in []*relation.Schema) (*relation.Schema, error) {
	if len(in) != 2 || in[0] == nil || in[1] == nil {
		return nil, fmt.Errorf("dataflow: %s: hash join needs two inputs", o.desc.Name)
	}
	if o.outSchema != nil {
		return o.outSchema, nil
	}
	plan, err := o.planFor(in[0], in[1])
	if err != nil {
		return nil, err
	}
	return plan.Schema(), nil
}

// planFor returns the join's plan for a build and a probe schema. It is
// planned on the first call and shared until the inputs or the keys
// change, which only a rewrite between runs does.
func (o *HashJoinOp) planFor(build, probe *relation.Schema) (*relation.JoinPlan, error) {
	key := planKey{build: build, probe: probe, buildKey: o.BuildKey, probeKey: o.ProbeKey}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.plan != nil && o.planned == key {
		return o.plan, nil
	}
	plan, err := relation.PlanJoin(probe, build, o.ProbeKey, o.BuildKey)
	if err != nil {
		return nil, fmt.Errorf("dataflow: %s: %w", o.desc.Name, err)
	}
	o.plan, o.planned = plan, key
	return plan, nil
}

// NewInstance returns a join worker with its own hash table, on the
// plan the operator shares for its build (in[0]) and probe (in[1])
// schemas.
func (o *HashJoinOp) NewInstance(_ ExecCtx, in []*relation.Schema) (Instance, error) {
	if len(in) != 2 {
		return nil, fmt.Errorf("dataflow: %s: expected two input schemas", o.desc.Name)
	}
	plan, err := o.planFor(in[0], in[1])
	if err != nil {
		return nil, err
	}
	ji := &joinInstance{op: o, plan: plan}
	ji.sent = ji.inline[:0]
	ji.permuted = make(relation.Tuple, len(o.outPerm))
	return ji, nil
}

type joinInstance struct {
	op   *HashJoinOp
	plan *relation.JoinPlan // the operator's, shared by its instances
	// sent holds the build batches as they came: in inline while they
	// are few, then grown fourfold. Upstream never writes a batch once
	// emitted, so the joiner indexes them where they are.
	sent     [][]relation.Tuple
	inline   [8][]relation.Tuple
	built    int // rows in sent
	joiner   relation.Joiner
	heads    []int32        // scratch: ProbeRows' chain heads
	permuted relation.Tuple // scratch: one row in op.outPerm order

	// keep, when set by pushFilter, is the predicate of the filter this
	// join feeds alone: only the rows it accepts are built. dropped and
	// droppedBytes count the rows it rejected from the last batch.
	keep         relation.Predicate
	dropped      int
	droppedBytes int64
}

// pushFilter binds the predicate of the filter this join's output goes
// to and nowhere else. Rows are judged in the join's logical column
// order, through outPerm for a swapped join, as the filter would see
// them.
func (ji *joinInstance) pushFilter(keep relation.Predicate) {
	perm := ji.op.outPerm
	if perm == nil {
		ji.keep = keep
		return
	}
	ji.keep = func(row relation.Tuple) bool {
		for k, p := range perm {
			ji.permuted[k] = row[p]
		}
		return keep(ji.permuted)
	}
}

func (ji *joinInstance) Process(ec ExecCtx, port int, rows []relation.Tuple) ([]relation.Tuple, error) {
	switch port {
	case 0:
		ec.AddWork(ji.op.BuildWork.Scale(float64(len(rows))))
		if len(ji.sent) == cap(ji.sent) {
			ji.sent = append(make([][]relation.Tuple, 0, 4*len(ji.sent)), ji.sent...)
		}
		ji.sent, ji.built = append(ji.sent, rows), ji.built+len(rows)
		return nil, nil
	case 1:
		w := ji.op.ProbeWork
		if n := ji.built; n > 1 {
			w.Mem += ji.op.ProbeMemLog * math.Log2(float64(n))
		}
		ec.AddWork(w.Scale(float64(len(rows))))
		var out []relation.Tuple
		out, ji.heads, ji.dropped, ji.droppedBytes = ji.joiner.ProbeRows(ec.Out(), ji.heads, rows, ji.keep)
		// The rows ProbeRows returned are not handed out yet, so a
		// swapped join re-orders each in place.
		if perm := ji.op.outPerm; perm != nil {
			for _, row := range out {
				for k, p := range perm {
					ji.permuted[k] = row[p]
				}
				copy(row, ji.permuted)
			}
		}
		return out, nil
	default:
		return nil, fmt.Errorf("dataflow: %s: unexpected port %d", ji.op.desc.Name, port)
	}
}

// EndPort indexes the build batches once the build side is complete.
func (ji *joinInstance) EndPort(ec ExecCtx, port int) ([]relation.Tuple, error) {
	if port == 0 {
		ji.joiner = ji.plan.Build(ji.op.Kind, ji.sent...)
	}
	return nil, nil
}

// ---------------------------------------------------------------------------
// GroupBy

// GroupByOp groups its single blocking port and emits aggregates when
// the input ends.
type GroupByOp struct {
	base
	Keys []string
	Aggs []relation.Aggregate
	Work cost.Work // per input tuple
}

// NewGroupBy returns a blocking group-by operator.
func NewGroupBy(name string, lang cost.Language, keys []string, aggs []relation.Aggregate) *GroupByOp {
	return &GroupByOp{
		base: base{Desc{Name: name, Language: lang, Ports: 1, BlockingPorts: []bool{true}}},
		Keys: keys,
		Aggs: aggs,
		Work: DefaultGroupWork,
	}
}

// OutputSchema derives the grouped schema.
func (o *GroupByOp) OutputSchema(in []*relation.Schema) (*relation.Schema, error) {
	if len(in) != 1 || in[0] == nil {
		return nil, fmt.Errorf("dataflow: %s: group-by needs exactly one input", o.desc.Name)
	}
	proto, err := relation.GroupBy(relation.NewTable(in[0]), o.Keys, o.Aggs)
	if err != nil {
		return nil, fmt.Errorf("dataflow: %s: %w", o.desc.Name, err)
	}
	return proto.Schema(), nil
}

// NewInstance returns a group-by worker.
func (o *GroupByOp) NewInstance(_ ExecCtx, in []*relation.Schema) (Instance, error) {
	return &groupByInstance{op: o, in: relation.NewTable(in[0])}, nil
}

type groupByInstance struct {
	op *GroupByOp
	in *relation.Table
}

func (gi *groupByInstance) Process(ec ExecCtx, _ int, rows []relation.Tuple) ([]relation.Tuple, error) {
	ec.AddWork(gi.op.Work.Scale(float64(len(rows))))
	for _, r := range rows {
		gi.in.AppendUnchecked(r)
	}
	return nil, nil
}
func (gi *groupByInstance) EndPort(ec ExecCtx, _ int) ([]relation.Tuple, error) {
	out, err := relation.GroupBy(gi.in, gi.op.Keys, gi.op.Aggs)
	if err != nil {
		return nil, err
	}
	return out.Rows(), nil
}

// ---------------------------------------------------------------------------
// Sort

// SortOp buffers its blocking input and emits it sorted on EndPort.
type SortOp struct {
	base
	Fields []string
	Work   cost.Work // per comparison
}

// NewSort returns a blocking sort operator.
func NewSort(name string, lang cost.Language, fields ...string) *SortOp {
	return &SortOp{
		base:   base{Desc{Name: name, Language: lang, Ports: 1, BlockingPorts: []bool{true}}},
		Fields: fields,
		Work:   DefaultSortWorkPerCmp,
	}
}

// OutputSchema passes the input schema through.
func (o *SortOp) OutputSchema(in []*relation.Schema) (*relation.Schema, error) {
	if len(in) != 1 || in[0] == nil {
		return nil, fmt.Errorf("dataflow: %s: sort needs exactly one input", o.desc.Name)
	}
	return in[0], nil
}

// NewInstance returns a sort worker.
func (o *SortOp) NewInstance(_ ExecCtx, in []*relation.Schema) (Instance, error) {
	return &sortInstance{op: o, in: relation.NewTable(in[0])}, nil
}

type sortInstance struct {
	op *SortOp
	in *relation.Table
}

func (si *sortInstance) Process(_ ExecCtx, _ int, rows []relation.Tuple) ([]relation.Tuple, error) {
	for _, r := range rows {
		si.in.AppendUnchecked(r)
	}
	return nil, nil
}
func (si *sortInstance) EndPort(ec ExecCtx, _ int) ([]relation.Tuple, error) {
	n := float64(si.in.Len())
	if n > 1 {
		ec.AddWork(si.op.Work.Scale(n * math.Log2(n)))
	}
	if err := si.in.SortBy(si.op.Fields...); err != nil {
		return nil, err
	}
	return si.in.Rows(), nil
}

// ---------------------------------------------------------------------------
// Limit

// LimitOp passes through at most N tuples (per workflow, so it should
// run with parallelism 1).
type LimitOp struct {
	base
	N int
}

// NewLimit returns a limit operator.
func NewLimit(name string, lang cost.Language, n int) *LimitOp {
	return &LimitOp{
		base: base{Desc{Name: name, Language: lang, Ports: 1, BlockingPorts: []bool{false}}},
		N:    n,
	}
}

// OutputSchema passes the input schema through.
func (o *LimitOp) OutputSchema(in []*relation.Schema) (*relation.Schema, error) {
	if len(in) != 1 || in[0] == nil {
		return nil, fmt.Errorf("dataflow: %s: limit needs exactly one input", o.desc.Name)
	}
	return in[0], nil
}

// NewInstance returns a limit worker.
func (o *LimitOp) NewInstance(ExecCtx, []*relation.Schema) (Instance, error) {
	return &limitInstance{op: o, left: o.N}, nil
}

type limitInstance struct {
	op   *LimitOp
	left int
}

func (li *limitInstance) Process(ec ExecCtx, _ int, rows []relation.Tuple) ([]relation.Tuple, error) {
	ec.AddWork(DefaultProjectWork.Scale(float64(len(rows))))
	if li.left <= 0 {
		return nil, nil
	}
	if len(rows) > li.left {
		rows = rows[:li.left]
	}
	li.left -= len(rows)
	return rows, nil
}
func (li *limitInstance) EndPort(ExecCtx, int) ([]relation.Tuple, error) { return nil, nil }
