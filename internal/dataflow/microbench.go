package dataflow

import (
	"repro/internal/cost"
	"repro/internal/relation"
)

// Exported micro-benchmark loops over the executor's unexported hot
// paths (the ring-buffer queue, the sharded work accounting, a map
// worker's batch and a hash edge's split), so the wall-clock
// harness in internal/bench can time them from outside the package.
// The caller supplies iteration counts and does the timing; the
// benchmarks in bench_test.go are such callers, not second copies.

// QueuePushPopLoop performs iters bursts of burst pushes followed by
// burst tryPops on one queue (burst 1 is the ping-pong case).
func QueuePushPopLoop(iters, burst int) {
	var q queue
	rows := make([]relation.Tuple, 16)
	for i := range rows {
		rows[i] = relation.Tuple{relation.IntValue(int64(i)), relation.StringValue("payload")}
	}
	m := batchMsg{rows: rows}
	for i := 0; i < iters; i++ {
		for j := 0; j < burst; j++ {
			q.push(m)
		}
		for j := 0; j < burst; j++ {
			if _, ok, _ := q.tryPop(); !ok {
				panic("dataflow: microbench queue underflow")
			}
		}
	}
}

// AddWorkLoop charges iters work items through a worker's ExecCtx,
// exercising the per-shard accounting path operators hit per batch.
func AddWorkLoop(iters int) {
	ec := microCtx()
	w := cost.Work{Interp: 1e-6, Mem: 2e-7}
	for i := 0; i < iters; i++ {
		ec.AddWork(w)
	}
}

// microCtx is the ExecCtx of a lone worker on port 0 of a two-port
// operator, as Start builds it, except that its arena has no source.
func microCtx() *execCtx {
	rt := &nodeRuntime{n: &node{parallelism: 1}, shards: []workShard{{byPort: make([]cost.Work, 2)}}}
	sh := &rt.shards[0]
	sh.ec = execCtx{rt: rt, shard: sh}
	return &sh.ec
}

// microBatch is the batch DICE-200 actually moves: 8 rows, here of the
// 10 string and integer columns its parsed annotations have.
func microBatch() []relation.Tuple {
	rows := make([]relation.Tuple, 8)
	for i := range rows {
		id := string(rune('a' + i))
		rows[i] = relation.Tuple{relation.StringValue("case-17"), relation.StringValue("T"), relation.StringValue("T" + id),
			relation.StringValue("Sign_symptom"), relation.IntValue(int64(100 * i)), relation.IntValue(int64(100*i + 9)),
			relation.StringValue("chest pain"), relation.StringValue(""), relation.StringValue(""), relation.StringValue("case-17|T" + id)}
	}
	return rows
}

// MapProjectLoop maps the 8-row batch through a 1:1 UDF that keeps five
// of its ten columns, iters times: one reshaping step of the DICE
// workflow per iteration.
func MapProjectLoop(iters int) {
	out := relation.MustSchema(
		relation.Field{Name: "case", Type: relation.String},
		relation.Field{Name: "id", Type: relation.String},
		relation.Field{Name: "etype", Type: relation.String},
		relation.Field{Name: "start", Type: relation.Int},
		relation.Field{Name: "text", Type: relation.String},
	)
	ec, batch := microCtx(), microBatch()
	inst, err := NewMap("reshape", cost.Python, out, func(r relation.Tuple, out *Rows) error {
		out.Emit(r[0], r[2], r[3], r[4], r[6])
		return nil
	}).NewInstance(ec, nil)
	if err != nil {
		panic(err)
	}
	for i := 0; i < iters; i++ {
		if rows, err := inst.Process(ec, 0, batch); err != nil || len(rows) != len(batch) {
			panic("dataflow: microbench map lost rows")
		}
	}
}

// RouteHashLoop splits the 8-row batch over 4 outputs by the hash of
// its string key column, iters times: what a producing worker does per
// batch on a hash edge, short of the queue pushes.
func RouteHashLoop(iters int) {
	var split hashSplitter
	batch := microBatch()
	for i := 0; i < iters; i++ {
		if placed, ends := split.by(batch, 9, 4); len(placed) != len(batch) || ends[3] != len(batch) {
			panic("dataflow: microbench hash split lost rows")
		}
	}
}
