package dataflow

import (
	"repro/internal/cost"
	"repro/internal/sim"
)

// GoldenJSON is the package's golden-file helper (and with it the
// -update flag), for the external test package.
var GoldenJSON = goldenJSON

// LowerNamed is Lower with every job named as a recorded span would
// show it: batch jobs, which lowering leaves unnamed, go through the
// formatter recordTelemetry uses.
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
			jobs[i].Name = mt.batchName(nodeName[mt.Node])
		}
	}
	return jobs, pools, nil
}
