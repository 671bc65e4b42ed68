package dataflow

import (
	"context"
	"runtime"

	"repro/internal/cost"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// GoldenJSON is the package's golden-file helper (and with it the
// -update flag), for the external test package.
var GoldenJSON = goldenJSON

// LowerNamed is Lower with every job named as a recorded span would
// show it: batch jobs, which lowering leaves unnamed, go through the
// formatter a recorder names them with.
func LowerNamed(tr *Trace, m *cost.Model) ([]sim.Job, []sim.Pool, error) {
	jobs, pools, meta, err := lowerWithMeta(tr, m)
	if err != nil {
		return nil, nil, err
	}
	nodeName := make(map[NodeID]string, len(tr.Nodes))
	for _, n := range tr.Nodes {
		nodeName[n.ID] = n.Name
	}
	for i, mt := range meta {
		if mt.Batch {
			jobs[i].Name = telemetry.BatchLabel(nodeName[mt.Node], mt.Port, mt.Seq)
		}
	}
	return jobs, pools, nil
}

// RecordingAllocs runs w with a recorder attached, then records the
// finished execution again into a fresh recorder, and returns the heap
// objects that second recording allocated and the batch jobs its
// schedule held.
func RecordingAllocs(w *Workflow) (objects uint64, batches int, err error) {
	ex, err := w.Start(context.Background(), Config{Telemetry: telemetry.New()})
	if err != nil {
		return 0, 0, err
	}
	res, err := ex.Wait()
	if err != nil {
		return 0, 0, err
	}
	jobs, pools, meta, err := lowerWithMeta(res.Trace, ex.model)
	if err != nil {
		return 0, 0, err
	}
	sched, err := sim.Schedule(jobs, pools)
	if err != nil {
		return 0, 0, err
	}
	for _, mt := range meta {
		if mt.Batch {
			batches++
		}
	}
	ex.tel = newExecTelemetry(telemetry.New(), w.name)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ex.recordTelemetry(jobs, meta, sched)
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, batches, nil
}
