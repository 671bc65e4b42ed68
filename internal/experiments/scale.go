package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/relation"
)

// ---------------------------------------------------------------------------
// E14 — distributed scale-out: breaking the 32-vCPU ceiling.
//
// The paper's cluster is one machine's worth of workers; the sharded
// tier asks what happens when the same workloads grow 10–100× and the
// only way out is more nodes. DICE is run at multiples of its largest
// paper size across node counts, under both paradigms, with the
// topology's per-worker memory budget set low enough that the largest
// factor's blocking operators take the grace spill path. Each row
// reports makespan plus the two costs that exist only on the sharded
// tier — exchange bytes crossing the NIC and bytes spilled to disk —
// and asserts the tier's core invariant: sharding prices the schedule,
// never the data, so every topology's output digest is bit-identical
// to the single-cluster run, including under whole-node loss.

// ScaleFactors are the dataset multiples of the paper's largest DICE
// size (200 pairs) the experiment sweeps.
var ScaleFactors = []int{10, 100}

// ScaleNodes is the node-count sweep; 1 is the legacy single-cluster
// tier, the rest are sharded topologies of 8-vCPU nodes.
var ScaleNodes = []int{1, 4, 16}

// ScaleSpillBudget is the per-worker state budget (bytes) the sharded
// rows run under at paper scale — calibrated so the 10× factor stays
// in memory and the 100× factor's join build sides spill on the
// narrow topologies (more nodes bring more aggregate memory, so the
// spill recedes as the cluster widens). Config.Scale shrinks the
// budget with the datasets, preserving that shape in quick runs.
const ScaleSpillBudget = 128 << 10

// ScaleRow is one (factor, nodes) cell of the scale-out grid.
type ScaleRow struct {
	// Factor multiplies the 200-pair paper size; Pairs is the resulting
	// dataset size after Config.Scale shrinking.
	Factor int
	Pairs  int
	// Nodes and Workers describe the topology: 8 workers per node,
	// nodes=1 meaning the legacy paper cluster.
	Nodes   int
	Workers int
	// Script and Workflow are makespans in simulated seconds.
	Script   float64
	Workflow float64
	// ShuffleBytes totals exchange bytes crossing the NIC (workflow
	// trace; ScriptShuffleBytes the script paradigm's object-store
	// cross-node fetches). SpillBytes totals the workflow's grace-spill
	// writes. All three are zero on the legacy tier.
	ShuffleBytes       int64
	ScriptShuffleBytes int64
	SpillBytes         int64
	// OutputsAgree: script and workflow outputs match at this topology.
	// DigestsStable: both paradigms' outputs are bit-identical to the
	// nodes=1 baseline. NodeLossStable: the workflow output survives a
	// whole-node-loss fault plan bit-identically (checked on the
	// largest node count; vacuously true elsewhere).
	OutputsAgree   bool
	DigestsStable  bool
	NodeLossStable bool
}

// Scale runs the E14 grid: DICE at each factor across the node sweep.
func Scale(cfg Config) ([]ScaleRow, error) {
	cfg = cfg.normalize()
	budget := int64(ScaleSpillBudget / cfg.Scale)
	if budget < 1 {
		budget = 1
	}
	var out []ScaleRow
	for _, factor := range ScaleFactors {
		pairs := cfg.scaled(200 * factor)
		var wantS, wantW uint64
		for i, nodes := range ScaleNodes {
			workers := 8 * nodes
			rc := cfg.RunConfig
			rc.Workers, rc.Nodes, rc.ShardMemBytes = workers, nodes, budget
			task, err := core.NewTask("dice", pairs, cfg.Seed)
			if err != nil {
				return nil, err
			}
			s, w, err := core.RunBoth(task, rc)
			if err != nil {
				return nil, err
			}
			ds, dw := relation.Digest(s.Output), relation.Digest(w.Output)
			if i == 0 {
				wantS, wantW = ds, dw
			}
			row := ScaleRow{
				Factor:             factor,
				Pairs:              pairs,
				Nodes:              nodes,
				Workers:            workers,
				Script:             s.SimSeconds,
				Workflow:           w.SimSeconds,
				ShuffleBytes:       w.Trace.ShuffleBytes,
				ScriptShuffleBytes: s.Trace.ShuffleBytes,
				SpillBytes:         w.Trace.SpillBytes,
				OutputsAgree:       s.Output.Equal(w.Output),
				DigestsStable:      ds == wantS && dw == wantW,
				NodeLossStable:     true,
			}
			// On the widest topology, lose whole nodes mid-run and
			// require the recovered output bit-identical to the
			// fault-free baseline.
			if nodes == ScaleNodes[len(ScaleNodes)-1] {
				frc := rc
				frc.Faults = faults.Plan{Seed: cfg.Seed, Rate: 2, NodeFraction: 1, MaxFaults: 4}
				ftask, err := core.NewTask("dice", pairs, cfg.Seed)
				if err != nil {
					return nil, err
				}
				fs, fw, err := core.RunBoth(ftask, frc)
				if err != nil {
					return nil, err
				}
				row.NodeLossStable = relation.Digest(fs.Output) == wantS &&
					relation.Digest(fw.Output) == wantW
			}
			if !row.DigestsStable {
				return nil, fmt.Errorf("experiments: scale factor %d nodes %d changed the output digest", factor, nodes)
			}
			out = append(out, row)
		}
	}
	return out, nil
}
