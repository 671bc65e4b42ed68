package planopt

import (
	"repro/internal/dataflow"
	"repro/internal/relation"
)

// Samples runs the estimator over w and returns each node's output
// sample (nil where the estimator has none), for the external tests
// that need the task plans — which import this package.
func Samples(w *dataflow.Workflow, sampleRows int) (map[dataflow.NodeID]*relation.Table, error) {
	est, err := inferEstimates(w, sampleRows)
	if err != nil {
		return nil, err
	}
	out := make(map[dataflow.NodeID]*relation.Table, len(est))
	for id, e := range est {
		out[id] = e.sample
	}
	return out, nil
}
