package dataflow

import (
	"fmt"
	"slices"

	"repro/internal/cost"
)

// This file implements the engine-side resource tuning the paper's
// Aspect #2 credits Texera with: given one profiled execution (a
// Trace), the tuner searches worker allocations on the simulator and
// recommends per-operator parallelism for a CPU budget — the burden
// the script paradigm leaves to the user.

// Retune returns a copy of the trace with new per-node parallelism.
// Recorded work totals are parallelism-independent except the
// per-worker initialization (OpenWork), which is rescaled from per-worker
// cost × new worker count.
func Retune(tr *Trace, par map[NodeID]int) *Trace {
	out := &Trace{Workflow: tr.Workflow}
	out.Edges = append(out.Edges, tr.Edges...)
	out.Nodes = make([]NodeTrace, len(tr.Nodes))
	for i, n := range tr.Nodes {
		c := n
		c.WorkByPort = append([]cost.Work(nil), n.WorkByPort...)
		c.BlockingPorts = append([]bool(nil), n.BlockingPorts...)
		if p, ok := par[n.ID]; ok && p > 0 {
			oldPar := n.Parallelism
			if oldPar < 1 {
				oldPar = 1
			}
			c.OpenWork = n.OpenWork.Scale(float64(p) / float64(oldPar))
			c.Parallelism = p
		}
		out.Nodes[i] = c
	}
	return out
}

// TuneResult is the tuner's recommendation.
type TuneResult struct {
	// Workers maps each operator to its recommended parallelism.
	Workers map[NodeID]int
	// Seconds is the simulated time under the recommendation.
	Seconds float64
	// BaselineSeconds is the simulated time with every operator at one
	// worker.
	BaselineSeconds float64
	// CoresUsed is the total workers assigned beyond sources/sinks.
	CoresUsed int
}

// AutoTune greedily assigns up to budget total workers across the
// trace's parallelizable operators, one at a time, always to the
// operator whose extra worker shrinks the simulated makespan the most.
// It stops early when no single additional worker helps.
func AutoTune(tr *Trace, m *cost.Model, budget int) (*TuneResult, error) {
	if tr == nil {
		return nil, fmt.Errorf("dataflow: nil trace")
	}
	if budget < 1 {
		return nil, fmt.Errorf("dataflow: tuning budget must be positive, got %d", budget)
	}
	var tunable []NodeID
	par := make(map[NodeID]int)
	for _, n := range tr.Nodes {
		par[n.ID] = 1
		if n.Parallelizable {
			tunable = append(tunable, n.ID)
		}
	}
	slices.Sort(tunable)

	estimate := func() (float64, error) {
		return SimTime(Retune(tr, par), m)
	}
	baseline, err := estimate()
	if err != nil {
		return nil, err
	}
	best := baseline
	used := len(tunable) // every tunable operator starts with one worker

	for used < budget {
		bestID := NodeID(-1)
		bestTime := best
		for _, id := range tunable {
			par[id]++
			t, err := estimate()
			par[id]--
			if err != nil {
				return nil, err
			}
			if t < bestTime-1e-9 {
				bestTime = t
				bestID = id
			}
		}
		if bestID < 0 {
			break // no single extra worker helps
		}
		par[bestID]++
		best = bestTime
		used++
	}
	return &TuneResult{
		Workers:         par,
		Seconds:         best,
		BaselineSeconds: baseline,
		CoresUsed:       used,
	}, nil
}
