package main

import (
	"repro/internal/core"
	"repro/internal/xrand"

	// The task packages register themselves with core on import.
	_ "repro/internal/tasks/dice"
	_ "repro/internal/tasks/gotta"
	_ "repro/internal/tasks/kge"
	_ "repro/internal/tasks/wef"
)

// workloadDef is one benchmark workload. All four are closed loops: a
// client starts its next op only once the previous one has finished,
// because the paper's user is a data scientist who submits work and
// waits for the answer.
type workloadDef struct {
	Name string
	Why  string
	// heapOps is the op count at which the window reads the live heap.
	heapOps int
	// build makes the workload for a benchmark seed; the seed is the
	// dataset seed of every spec and, where the workload says so, orders
	// the specs.
	build func(seed uint64) (workload, error)
}

var workloads = []workloadDef{
	{
		Name:    "dice-workflow",
		Why:     "relational dataflow path: DICE workflow, 200 pairs, at workers 1 then 4; join/serde/columnar, executor queues, sim.Schedule busy, ml/notebook/raysim idle",
		heapOps: 30,
		build: func(seed uint64) (workload, error) {
			return newBatchWorkload(seeded(seed, []core.RunSpec{
				{Task: "dice", Paradigm: "workflow", Size: 200, Workers: 1},
				{Task: "dice", Paradigm: "workflow", Size: 200, Workers: 4},
			}), nil)
		},
	},
	{
		Name:    "script-mix",
		Why:     "control: script paradigm of dice, wef, gotta and kge at workers 4; notebook/raysim/ml/datagen busy and no dataflow join runs, so relational or executor changes must show no change here",
		heapOps: 60,
		build: func(seed uint64) (workload, error) {
			return newBatchWorkload(shuffled(seed, seeded(seed, []core.RunSpec{
				{Task: "dice", Paradigm: "script", Size: 200, Workers: 4},
				{Task: "wef", Paradigm: "script", Size: 200, Workers: 4},
				{Task: "gotta", Paradigm: "script", Size: 16, Workers: 4},
				{Task: "kge", Paradigm: "script", Size: 6800, Workers: 4},
			})), nil)
		},
	},
	{
		Name:    "features-on",
		Why:     "DICE workflow, 50 pairs, with optimize, nodes=4, faults+checkpoints, then a cold run and two edits on one lineage store: puts planopt, shard, faults and lineage/objstore on the blocking path",
		heapOps: 15,
		build: func(seed uint64) (workload, error) {
			specs := seeded(seed, []core.RunSpec{
				{Task: "dice", Paradigm: "workflow", Size: 50, Workers: 8, Optimize: true},
				{Task: "dice", Paradigm: "workflow", Size: 50, Workers: 32, Nodes: 4},
				{Task: "dice", Paradigm: "workflow", Size: 50, Workers: 8, FaultRate: 6, NodeFraction: 0.25, CheckpointEvery: 4},
				{Task: "dice", Paradigm: "workflow", Size: 50, Workers: 8},
			})
			return newBatchWorkload(specs[:3], &specs[3])
		},
	},
	{
		Name:    "serve-sweeps",
		Why:     "POST /v1/runs to digest: two tenants each sweep six specs through an in-process obs server over loopback; adds HTTP, JSON, SSE, registry, fair-share queueing and the always-on shared recorder",
		heapOps: 30,
		build: func(seed uint64) (workload, error) {
			return newServeWorkload(shuffled(seed, seeded(seed, []core.RunSpec{
				{Task: "dice", Paradigm: "workflow", Size: 100, Workers: 4},
				{Task: "dice", Paradigm: "script", Size: 200, Workers: 4},
				{Task: "wef", Paradigm: "script", Size: 100},
				{Task: "gotta", Paradigm: "both", Size: 16, Workers: 4},
				{Task: "kge", Paradigm: "workflow", Size: 3400, Workers: 4},
				{Task: "kge", Paradigm: "script", Size: 6800, Workers: 8},
			})))
		},
	},
}

// seeded gives every spec the dataset seed and its normalized form, so
// labels and gate keys read the same before and after the wire.
func seeded(seed uint64, specs []core.RunSpec) []core.RunSpec {
	for i := range specs {
		specs[i].Seed = seed
		n, err := specs[i].Normalize()
		if err != nil {
			panic("benchmark: workload table holds an invalid spec: " + err.Error())
		}
		specs[i] = n
	}
	return specs
}

// shuffled orders the specs by the benchmark seed.
func shuffled(seed uint64, specs []core.RunSpec) []core.RunSpec {
	xrand.New(seed).Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	return specs
}

// findWorkload looks a workload up by name.
func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}
