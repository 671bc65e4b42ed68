package dataflow

import (
	"sync/atomic"
	"testing"

	"repro/internal/cost"
)

// The three benchmarks below are the loops internal/bench times as
// queue_push_pop, queue_push_pop_burst256 and add_work, under testing.B
// so -bench, -benchmem and -cpuprofile work on them (each includes its
// loop's few fixture allocations in op one).

func BenchmarkQueuePushPop(b *testing.B) {
	b.ReportAllocs()
	QueuePushPopLoop(b.N, 1)
}

func BenchmarkQueuePushPopBurst(b *testing.B) {
	b.ReportAllocs()
	QueuePushPopLoop(b.N, 256)
}

func BenchmarkAddWork(b *testing.B) {
	b.ReportAllocs()
	AddWorkLoop(b.N)
}

func benchRuntime(workers int) *nodeRuntime {
	rt := &nodeRuntime{n: &node{parallelism: workers}}
	rt.shards = make([]workShard, workers)
	for s := range rt.shards {
		rt.shards[s].byPort = make([]cost.Work, 2)
	}
	return rt
}

// BenchmarkAddWorkParallel drives one execCtx per goroutine against a
// shared runtime — the pattern every multi-worker operator follows.
// With the old shared mutex this serialized; with per-worker shards it
// scales with core count.
func BenchmarkAddWorkParallel(b *testing.B) {
	const workers = 8
	rt := benchRuntime(workers)
	w := cost.Work{Interp: 1e-6, Mem: 2e-7}
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		shard := int(next.Add(1)-1) % workers
		ec := &execCtx{rt: rt, shard: &rt.shards[shard], phase: 0}
		for pb.Next() {
			ec.AddWork(w)
		}
	})
}
