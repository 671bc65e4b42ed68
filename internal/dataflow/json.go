package dataflow

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/cost"
	"repro/internal/relation"
)

// This file implements a JSON workflow description — the serialized
// form a GUI would produce — and its compiler into a runnable
// Workflow. It covers the engine's builtin operators; user-defined
// functions cannot be expressed in JSON and are available only through
// the Go API.

// Spec is a complete workflow description.
type Spec struct {
	Name      string     `json:"name"`
	Operators []OpSpec   `json:"operators"`
	Links     []LinkSpec `json:"links"`
}

// OpSpec describes one operator (or source or sink).
type OpSpec struct {
	ID          string `json:"id"`
	Type        string `json:"type"` // source|filter|project|join|groupby|sort|limit|union|sink
	Language    string `json:"language,omitempty"`
	Parallelism int    `json:"parallelism,omitempty"`

	// Source fields.
	Schema []FieldSpec       `json:"schema,omitempty"`
	Data   []json.RawMessage `json:"data,omitempty"`

	// Filter.
	Condition string `json:"condition,omitempty"`

	// Project.
	Columns []string `json:"columns,omitempty"`

	// Join.
	BuildKey string `json:"buildKey,omitempty"`
	ProbeKey string `json:"probeKey,omitempty"`
	JoinType string `json:"joinType,omitempty"` // inner|left

	// GroupBy.
	Keys         []string  `json:"keys,omitempty"`
	Aggregations []AggSpec `json:"aggregations,omitempty"`

	// Sort.
	SortBy []string `json:"sortBy,omitempty"`

	// Limit.
	Limit int `json:"limit,omitempty"`
}

// FieldSpec declares one source column.
type FieldSpec struct {
	Name string `json:"name"`
	Type string `json:"type"` // int|float|string|bool
}

// AggSpec declares one group-by aggregate.
type AggSpec struct {
	Func  string `json:"func"` // count|sum|avg|min|max
	Field string `json:"field,omitempty"`
	As    string `json:"as"`
}

// LinkSpec connects two operators.
type LinkSpec struct {
	From      string `json:"from"`
	To        string `json:"to"`
	Port      int    `json:"port,omitempty"`
	Partition string `json:"partition,omitempty"` // roundrobin|hash|broadcast
	Key       string `json:"key,omitempty"`       // hash key
}

// ParseSpec decodes a JSON workflow description.
func ParseSpec(data []byte) (*Spec, error) {
	var s Spec
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("dataflow: parse spec: %w", err)
	}
	return &s, nil
}

// parseFieldType maps a type name.
func parseFieldType(s string) (relation.Type, error) {
	switch s {
	case "int":
		return relation.Int, nil
	case "float":
		return relation.Float, nil
	case "string":
		return relation.String, nil
	case "bool":
		return relation.Bool, nil
	default:
		return 0, fmt.Errorf("dataflow: unknown field type %q", s)
	}
}

// parseLanguage maps a language name (empty means Python).
func parseLanguage(s string) (cost.Language, error) {
	switch s {
	case "", "python":
		return cost.Python, nil
	case "scala":
		return cost.Scala, nil
	case "java":
		return cost.Java, nil
	case "r":
		return cost.R, nil
	default:
		return 0, fmt.Errorf("dataflow: unknown language %q", s)
	}
}

// sourceTable builds the inline source table of a source OpSpec.
func sourceTable(op OpSpec) (*relation.Table, error) {
	if len(op.Schema) == 0 {
		return nil, fmt.Errorf("dataflow: source %q needs a schema", op.ID)
	}
	fields := make([]relation.Field, len(op.Schema))
	for i, f := range op.Schema {
		ft, err := parseFieldType(f.Type)
		if err != nil {
			return nil, err
		}
		fields[i] = relation.Field{Name: f.Name, Type: ft}
	}
	schema, err := relation.NewSchema(fields...)
	if err != nil {
		return nil, err
	}
	tbl := relation.NewTable(schema)
	for ri, raw := range op.Data {
		var vals []any
		if err := json.Unmarshal(raw, &vals); err != nil {
			return nil, fmt.Errorf("dataflow: source %q row %d: %w", op.ID, ri, err)
		}
		if len(vals) != len(fields) {
			return nil, fmt.Errorf("dataflow: source %q row %d: %d values for %d fields", op.ID, ri, len(vals), len(fields))
		}
		row := make(relation.Tuple, len(vals))
		for ci, v := range vals {
			cv, err := coerce(v, fields[ci].Type)
			if err != nil {
				return nil, fmt.Errorf("dataflow: source %q row %d col %q: %w", op.ID, ri, fields[ci].Name, err)
			}
			row[ci] = cv
		}
		if err := tbl.Append(row); err != nil {
			return nil, err
		}
	}
	return tbl, nil
}

// coerce converts a decoded JSON value to the declared column type.
func coerce(v any, t relation.Type) (relation.Value, error) {
	switch t {
	case relation.Int:
		f, ok := v.(float64)
		if !ok || f != float64(int64(f)) {
			return relation.Value{}, fmt.Errorf("value %v is not an integer", v)
		}
		return relation.IntValue(int64(f)), nil
	case relation.Float:
		f, ok := v.(float64)
		if !ok {
			return relation.Value{}, fmt.Errorf("value %v is not a number", v)
		}
		return relation.FloatValue(f), nil
	case relation.String:
		s, ok := v.(string)
		if !ok {
			return relation.Value{}, fmt.Errorf("value %v is not a string", v)
		}
		return relation.StringValue(s), nil
	case relation.Bool:
		b, ok := v.(bool)
		if !ok {
			return relation.Value{}, fmt.Errorf("value %v is not a boolean", v)
		}
		return relation.BoolValue(b), nil
	}
	return relation.Value{}, fmt.Errorf("unsupported type")
}

// condFilterOp is a filter whose predicate comes from a parsed
// condition string, resolved against the input schema by each instance.
type condFilterOp struct {
	base
	cond condition
}

func (o *condFilterOp) OutputSchema(in []*relation.Schema) (*relation.Schema, error) {
	if len(in) != 1 || in[0] == nil {
		return nil, fmt.Errorf("dataflow: %s: filter needs exactly one input", o.desc.Name)
	}
	if _, err := o.cond.bind(in[0]); err != nil {
		return nil, err
	}
	return in[0], nil
}

func (o *condFilterOp) NewInstance(_ ExecCtx, in []*relation.Schema) (Instance, error) {
	pred, err := o.cond.bind(in[0])
	if err != nil {
		return nil, err
	}
	return &condFilterInstance{pred: pred}, nil
}

type condFilterInstance struct{ pred relation.Predicate }

func (ci *condFilterInstance) Process(ec ExecCtx, _ int, rows []relation.Tuple) ([]relation.Tuple, error) {
	ec.AddWork(DefaultFilterWork.Scale(float64(len(rows))))
	return keepRows(ec.Out(), rows, ci.pred), nil
}
func (ci *condFilterInstance) EndPort(ExecCtx, int) ([]relation.Tuple, error) { return nil, nil }

// condition is a parsed "field OP literal" predicate.
type condition struct {
	field string
	op    string
	lit   relation.Value
}

// parseCondition parses expressions like `age >= 21`,
// `name == "ann"`, `ok != true`.
func parseCondition(s string) (condition, error) {
	for _, op := range []string{"==", "!=", "<=", ">=", "<", ">"} {
		idx := strings.Index(s, op)
		if idx < 0 {
			continue
		}
		field := strings.TrimSpace(s[:idx])
		rhs := strings.TrimSpace(s[idx+len(op):])
		if field == "" || rhs == "" {
			return condition{}, fmt.Errorf("dataflow: malformed condition %q", s)
		}
		lit, err := parseLiteral(rhs)
		if err != nil {
			return condition{}, err
		}
		return condition{field: field, op: op, lit: lit}, nil
	}
	return condition{}, fmt.Errorf("dataflow: condition %q has no comparison operator", s)
}

func parseLiteral(s string) (relation.Value, error) {
	if strings.HasPrefix(s, `"`) && strings.HasSuffix(s, `"`) && len(s) >= 2 {
		return relation.StringValue(s[1 : len(s)-1]), nil
	}
	switch s {
	case "true":
		return relation.BoolValue(true), nil
	case "false":
		return relation.BoolValue(false), nil
	}
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return relation.IntValue(i), nil
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return relation.FloatValue(f), nil
	}
	return relation.Value{}, fmt.Errorf("dataflow: cannot parse literal %q", s)
}

// bind resolves the condition against a schema into a predicate.
func (c condition) bind(s *relation.Schema) (relation.Predicate, error) {
	pos := s.IndexOf(c.field)
	if pos < 0 {
		return nil, fmt.Errorf("dataflow: condition field %q not in schema [%s]", c.field, s)
	}
	ft, lit := s.Field(pos).Type, c.lit
	switch lit.Kind() {
	case relation.Int:
		switch ft {
		case relation.Int:
			l := lit.Int()
			return cmpPredicate(pos, c.op, ft, func(v relation.Value) int { return compareOrdered(v.Int(), l) })
		case relation.Float:
			f := float64(lit.Int())
			return cmpPredicate(pos, c.op, ft, func(v relation.Value) int { return compareOrdered(v.Float(), f) })
		}
		return nil, fmt.Errorf("dataflow: numeric condition on %s column %q", ft, c.field)
	case relation.Float:
		if ft != relation.Float {
			return nil, fmt.Errorf("dataflow: float condition on %s column %q", ft, c.field)
		}
		f := lit.Float()
		return cmpPredicate(pos, c.op, ft, func(v relation.Value) int { return compareOrdered(v.Float(), f) })
	case relation.Bool:
		if ft != relation.Bool {
			return nil, fmt.Errorf("dataflow: boolean condition on %s column %q", ft, c.field)
		}
		if c.op != "==" && c.op != "!=" {
			return nil, fmt.Errorf("dataflow: boolean condition supports == and != only")
		}
		return cmpPredicate(pos, c.op, ft, func(v relation.Value) int {
			if v.Equal(lit) {
				return 0
			}
			return 1
		})
	}
	if ft != relation.String {
		return nil, fmt.Errorf("dataflow: string condition on %s column %q", ft, c.field)
	}
	l := lit.Str()
	return cmpPredicate(pos, c.op, ft, func(v relation.Value) int { return compareOrdered(v.Str(), l) })
}

func compareOrdered[T int64 | float64 | string](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// cmpPredicate keeps a row when its cell at pos is of kind k and cmp's
// result against the literal satisfies op.
func cmpPredicate(pos int, op string, k relation.Type, cmp func(relation.Value) int) (relation.Predicate, error) {
	var want func(int) bool
	switch op {
	case "==":
		want = func(c int) bool { return c == 0 }
	case "!=":
		want = func(c int) bool { return c != 0 }
	case "<":
		want = func(c int) bool { return c < 0 }
	case "<=":
		want = func(c int) bool { return c <= 0 }
	case ">":
		want = func(c int) bool { return c > 0 }
	case ">=":
		want = func(c int) bool { return c >= 0 }
	default:
		return nil, fmt.Errorf("dataflow: unknown comparison %q", op)
	}
	return func(t relation.Tuple) bool {
		return t[pos].Kind() == k && want(cmp(t[pos]))
	}, nil
}

// Build compiles a spec into a runnable workflow.
func Build(spec *Spec) (*Workflow, error) {
	w, err := compile(spec)
	if err == nil {
		err = w.Validate()
	}
	if err != nil {
		return nil, err
	}
	return w, nil
}

// compile builds the workflow a spec describes without checking the
// plan; builder errors are left for Validate to report.
func compile(spec *Spec) (*Workflow, error) {
	if spec.Name == "" {
		return nil, fmt.Errorf("dataflow: spec has no name")
	}
	w := New(spec.Name)
	ids := make(map[string]NodeID, len(spec.Operators))
	for _, op := range spec.Operators {
		if op.ID == "" {
			return nil, fmt.Errorf("dataflow: operator with empty id")
		}
		if _, dup := ids[op.ID]; dup {
			return nil, fmt.Errorf("dataflow: duplicate operator id %q", op.ID)
		}
		lang, err := parseLanguage(op.Language)
		if err != nil {
			return nil, err
		}
		par := op.Parallelism
		if par == 0 {
			par = 1
		}
		var id NodeID
		switch op.Type {
		case "source":
			tbl, err := sourceTable(op)
			if err != nil {
				return nil, err
			}
			id = w.Source(op.ID, tbl)
		case "sink":
			id = w.Sink(op.ID)
		case "filter":
			cond, err := parseCondition(op.Condition)
			if err != nil {
				return nil, err
			}
			f := &condFilterOp{
				base: base{Desc{Name: op.ID, Language: lang, Ports: 1, BlockingPorts: []bool{false}}},
				cond: cond,
			}
			id = w.Op(f, WithParallelism(par))
		case "project":
			id = w.Op(NewProject(op.ID, lang, op.Columns...), WithParallelism(par))
		case "join":
			kind := relation.Inner
			switch op.JoinType {
			case "", "inner":
			case "left":
				kind = relation.LeftOuter
			default:
				return nil, fmt.Errorf("dataflow: unknown join type %q", op.JoinType)
			}
			id = w.Op(NewHashJoin(op.ID, lang, op.BuildKey, op.ProbeKey, kind), WithParallelism(par))
		case "groupby":
			aggs := make([]relation.Aggregate, len(op.Aggregations))
			for i, a := range op.Aggregations {
				fn, err := parseAggFunc(a.Func)
				if err != nil {
					return nil, err
				}
				aggs[i] = relation.Aggregate{Func: fn, Field: a.Field, As: a.As}
			}
			id = w.Op(NewGroupBy(op.ID, lang, op.Keys, aggs), WithParallelism(par))
		case "sort":
			id = w.Op(NewSort(op.ID, lang, op.SortBy...), WithParallelism(par))
		case "limit":
			id = w.Op(NewLimit(op.ID, lang, op.Limit), WithParallelism(par))
		case "union":
			id = w.Op(NewUnion(op.ID, lang), WithParallelism(par))
		default:
			return nil, fmt.Errorf("dataflow: unknown operator type %q", op.Type)
		}
		ids[op.ID] = id
	}
	for _, l := range spec.Links {
		from, ok := ids[l.From]
		if !ok {
			return nil, fmt.Errorf("dataflow: link from unknown operator %q", l.From)
		}
		to, ok := ids[l.To]
		if !ok {
			return nil, fmt.Errorf("dataflow: link to unknown operator %q", l.To)
		}
		var part Partitioning
		switch l.Partition {
		case "", "roundrobin":
			part = RoundRobin()
		case "hash":
			if l.Key == "" {
				return nil, fmt.Errorf("dataflow: hash link %q->%q needs a key", l.From, l.To)
			}
			part = HashPartition(l.Key)
		case "broadcast":
			part = Broadcast()
		default:
			return nil, fmt.Errorf("dataflow: unknown partitioning %q", l.Partition)
		}
		w.Connect(from, to, l.Port, part)
	}
	return w, nil
}

func parseAggFunc(s string) (relation.AggFunc, error) {
	switch s {
	case "count":
		return relation.Count, nil
	case "sum":
		return relation.Sum, nil
	case "avg":
		return relation.Avg, nil
	case "min":
		return relation.Min, nil
	case "max":
		return relation.Max, nil
	default:
		return 0, fmt.Errorf("dataflow: unknown aggregate %q", s)
	}
}
