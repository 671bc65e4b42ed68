package relation

import "fmt"

// Predicate decides whether a row is kept by Filter.
type Predicate func(Tuple) bool

// Filter returns a new table containing the rows of t that satisfy
// keep.
func Filter(t *Table, keep Predicate) *Table {
	out := NewTable(t.Schema())
	for _, r := range t.Rows() {
		if keep(r) {
			out.AppendUnchecked(r)
		}
	}
	return out
}

// Project returns a new table with only the named columns, in order.
func Project(t *Table, names ...string) (*Table, error) {
	kstats.project.Add(1)
	s, err := t.Schema().Project(names...)
	if err != nil {
		return nil, err
	}
	pos := make([]int, len(names))
	for i, n := range names {
		pos[i] = t.Schema().IndexOf(n)
	}
	out := NewTable(s)
	for _, r := range t.Rows() {
		row := make(Tuple, len(pos))
		for i, p := range pos {
			row[i] = r[p]
		}
		out.AppendUnchecked(row)
	}
	return out, nil
}

// JoinType selects inner or left-outer semantics for HashJoin.
type JoinType int

const (
	// Inner keeps only matching pairs.
	Inner JoinType = iota
	// LeftOuter keeps unmatched left rows, padding right columns with
	// zero values.
	LeftOuter
)

// HashJoin joins left and right on equality of leftKey and rightKey.
// The output schema is left's fields followed by right's fields with
// the join key column from the right side dropped; right-side name
// collisions are prefixed with "r_". Probe order follows the left
// table, so output order is deterministic.
func HashJoin(left, right *Table, leftKey, rightKey string, kind JoinType) (*Table, error) {
	j, err := NewJoiner(left.Schema(), right, leftKey, rightKey, kind)
	if err != nil {
		return nil, err
	}
	return j.Probe(left), nil
}

// AggFunc identifies a group-by aggregate.
type AggFunc int

const (
	// Count counts rows per group.
	Count AggFunc = iota
	// Sum sums a numeric column per group.
	Sum
	// Avg averages a numeric column per group.
	Avg
	// Min takes the minimum of a numeric column per group.
	Min
	// Max takes the maximum of a numeric column per group.
	Max
)

// Aggregate describes one aggregation in a GroupBy.
type Aggregate struct {
	Func  AggFunc
	Field string // input column; ignored for Count
	As    string // output column name
}

// GroupBy groups rows by the named key columns and computes the given
// aggregates. Output columns are the key columns followed by the
// aggregates (Count as Int, others as Float). Group order follows
// first appearance.
func GroupBy(t *Table, keys []string, aggs []Aggregate) (*Table, error) {
	keyPos := make([]int, len(keys))
	for i, k := range keys {
		p := t.Schema().IndexOf(k)
		if p < 0 {
			return nil, fmt.Errorf("relation: groupby: unknown key %q", k)
		}
		keyPos[i] = p
	}
	aggPos := make([]int, len(aggs))
	fields := make([]Field, 0, len(keys)+len(aggs))
	for _, p := range keyPos {
		fields = append(fields, t.Schema().Field(p))
	}
	for i, a := range aggs {
		if a.As == "" {
			return nil, fmt.Errorf("relation: groupby: aggregate %d has empty output name", i)
		}
		if a.Func == Count {
			aggPos[i] = -1
			fields = append(fields, Field{Name: a.As, Type: Int})
			continue
		}
		p := t.Schema().IndexOf(a.Field)
		if p < 0 {
			return nil, fmt.Errorf("relation: groupby: unknown field %q", a.Field)
		}
		ft := t.Schema().Field(p).Type
		if ft != Int && ft != Float {
			return nil, fmt.Errorf("relation: groupby: field %q is %s, need numeric", a.Field, ft)
		}
		aggPos[i] = p
		fields = append(fields, Field{Name: a.As, Type: Float})
	}
	outSchema, err := NewSchema(fields...)
	if err != nil {
		return nil, err
	}
	kstats.group.Add(1)

	// Groups bucket by canonical uint64 hash (no key-string allocation);
	// collisions resolve by canonical value equality. Floats accumulate
	// in row order, so the output bytes do not depend on map iteration.
	type acc struct {
		key   Tuple
		count int64
		sums  []float64
		mins  []float64
		maxs  []float64
	}
	groups := make(map[uint64][]*acc)
	var order []*acc
	numeric := func(v Value) float64 {
		switch v.Kind() {
		case Int:
			return float64(v.Int())
		case Float:
			return v.Float()
		}
		return 0
	}
	for _, r := range t.Rows() {
		h := hashTupleCanon(r, keyPos)
		var g *acc
		for _, cand := range groups[h] {
			match := true
			for i, p := range keyPos {
				if !equalValueCanon(cand.key[i], r[p]) {
					match = false
					break
				}
			}
			if match {
				g = cand
				break
			}
		}
		if g == nil {
			key := make(Tuple, len(keyPos))
			for i, p := range keyPos {
				key[i] = r[p]
			}
			g = &acc{key: key, sums: make([]float64, len(aggs)), mins: make([]float64, len(aggs)), maxs: make([]float64, len(aggs))}
			groups[h] = append(groups[h], g)
			order = append(order, g)
		}
		first := g.count == 0
		g.count++
		for i, p := range aggPos {
			if p < 0 {
				continue
			}
			v := numeric(r[p])
			g.sums[i] += v
			if first || v < g.mins[i] {
				g.mins[i] = v
			}
			if first || v > g.maxs[i] {
				g.maxs[i] = v
			}
		}
	}

	out := NewTable(outSchema)
	for _, g := range order {
		row := make(Tuple, 0, outSchema.Len())
		row = append(row, g.key...)
		for i, a := range aggs {
			switch a.Func {
			case Count:
				row = append(row, IntValue(g.count))
			case Sum:
				row = append(row, FloatValue(g.sums[i]))
			case Avg:
				row = append(row, FloatValue(g.sums[i]/float64(g.count)))
			case Min:
				row = append(row, FloatValue(g.mins[i]))
			case Max:
				row = append(row, FloatValue(g.maxs[i]))
			}
		}
		out.AppendUnchecked(row)
	}
	return out, nil
}
