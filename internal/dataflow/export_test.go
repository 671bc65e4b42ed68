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

// LowerNamed is Lower plus every job's name as a recorded span shows
// it: batch jobs through the formatter a recorder names them with, the
// rest through the name recordTelemetry gives them.
func LowerNamed(tr *Trace, m *cost.Model) ([]sim.Job, []sim.Pool, []string, error) {
	jobs, pools, meta, err := lowerWithMeta(tr, m)
	if err != nil {
		return nil, nil, nil, err
	}
	nodeName := make(map[int32]string, len(tr.Nodes))
	for _, n := range tr.Nodes {
		nodeName[int32(n.ID)] = n.Name
	}
	names := make([]string, len(jobs))
	for i, mt := range meta {
		switch {
		case mt.Node < 0:
			names[i] = mt.name(tr.Workflow)
		case mt.Kind == jobBatch:
			names[i] = telemetry.BatchLabel(nodeName[mt.Node], int(mt.Port), int(mt.Seq))
		default:
			names[i] = mt.name(nodeName[mt.Node])
		}
	}
	return jobs, pools, names, nil
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
		if mt.Kind == jobBatch {
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
