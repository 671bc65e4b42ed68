package obs

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/pipeline"
	"repro/internal/relation"
	"repro/internal/telemetry"
)

// ProfileNode is one operator of the EXPLAIN tree. Children are the
// node's input producers, so a profile reads top-down from each sink
// the way a database EXPLAIN reads from the result operator.
type ProfileNode struct {
	Name    string `json:"name"`
	Kind    string `json:"kind"`
	Workers int    `json:"workers"`
	// SelfVirt is the node's exclusive share of the virtual makespan:
	// elementary schedule intervals are split evenly among the tracks
	// active in them, so Σ SelfVirt over all nodes plus the controller
	// and wait rows reconstructs the makespan exactly.
	SelfVirt float64 `json:"self_virt_seconds"`
	// BusyVirt is the sum of the node's span durations (worker-seconds);
	// WindowVirt is its active window (last finish − first start).
	BusyVirt   float64 `json:"busy_virt_seconds"`
	WindowVirt float64 `json:"window_virt_seconds"`
	// QueueWait estimates input starvation: the part of the node's
	// window its average worker spent idle, window − busy/workers.
	QueueWait float64 `json:"queue_wait_seconds"`
	// WallBusyMS is the measured wall busy time across workers, present
	// only when BuildProfile is asked for wall time (it varies run to run).
	WallBusyMS float64 `json:"wall_busy_ms,omitempty"`
	InTuples   int64   `json:"in_tuples"`
	OutTuples  int64   `json:"out_tuples"`
	Batches    int64   `json:"batches"`
	OutBytes   int64   `json:"out_bytes"`
	// LineageHit marks a node served from the artifact store (replayed
	// or elided) instead of executed.
	LineageHit bool `json:"lineage_hit,omitempty"`
	// Ref marks a node already expanded under an earlier root; its
	// children are suppressed at this position.
	Ref    bool           `json:"ref,omitempty"`
	Inputs []*ProfileNode `json:"inputs,omitempty"`
}

// Profile is an EXPLAIN-ANALYZE-style hierarchical account of one
// workflow run: the plan tree annotated with measured per-operator
// time, data volume and cache behaviour. All virtual-clock fields are
// deterministic for a given task configuration.
type Profile struct {
	Task     string `json:"task"`
	Workflow string `json:"workflow"`
	Paradigm string `json:"paradigm"`
	Size     int    `json:"size"`
	Seed     uint64 `json:"seed"`
	Workers  int    `json:"workers"`

	// Makespan is the run's virtual execution time (the paper metric);
	// ControllerVirt and WaitVirt are the exclusive shares of the
	// controller track and of schedule gaps where no track was active.
	Makespan       float64 `json:"makespan_seconds"`
	ControllerVirt float64 `json:"controller_virt_seconds"`
	WaitVirt       float64 `json:"wait_virt_seconds"`

	Totals  core.TraceTotals     `json:"totals"`
	Kernels relation.KernelStats `json:"kernels"`
	// LineageHits / LineageNodes count cache-served nodes when the
	// profile ran with lineage armed.
	LineageHits  int `json:"lineage_hits,omitempty"`
	LineageNodes int `json:"lineage_nodes,omitempty"`

	Roots []*ProfileNode `json:"roots"`
}

// BuildProfile executes the spec's task workflow once (twice with
// spec.Lineage: a cold populate pass, then the profiled warm pass on the
// same store) and folds the plan, the schedule spans and the telemetry
// counters into the EXPLAIN tree. wall adds wall-clock busy time per
// operator, which varies run to run.
func BuildProfile(spec core.RunSpec, wall bool) (*Profile, error) {
	spec, err := spec.Normalize()
	if err != nil {
		return nil, err
	}
	task, err := spec.NewTask()
	if err != nil {
		return nil, err
	}
	pp, ok := task.(pipeline.PlanProvider)
	if !ok {
		return nil, fmt.Errorf("obs: task %q does not expose a workflow plan", spec.Task)
	}
	wf, err := pp.WorkflowPlan(spec.Workers)
	if err != nil {
		return nil, err
	}
	plan := wf.PlanNodes()

	cfg, err := spec.Config()
	if err != nil {
		return nil, err
	}
	if cfg.Lineage != nil {
		if _, err := task.Run(core.Workflow, cfg); err != nil {
			return nil, err
		}
	}
	rec := telemetry.New()
	cfg.Telemetry = rec
	k0 := relation.KernelCounts()
	res, err := task.Run(core.Workflow, cfg)
	if err != nil {
		return nil, err
	}
	kern := relation.KernelCounts().Sub(k0)

	p := &Profile{
		Task:     spec.Task,
		Workflow: wf.Name(),
		Paradigm: "workflow",
		Size:     spec.Size,
		Seed:     spec.Seed,
		Workers:  spec.Workers,
		Makespan: res.SimSeconds,
		Totals:   res.Trace,
		Kernels:  kern,
	}

	proc := "workflow:" + wf.Name()
	nodes := buildNodes(plan, rec, "wf."+wf.Name()+".", wall)
	attributeSelfTime(p, nodes, rec.Spans(), proc)
	if spec.Lineage {
		for _, n := range nodes {
			p.LineageNodes++
			if n.LineageHit {
				p.LineageHits++
			}
		}
	}
	p.Roots = buildTree(plan, nodes)
	return p, nil
}

// buildNodes creates one ProfileNode per plan node, filling the
// counter-derived fields from the recorder's deterministic metrics.
func buildNodes(plan []dataflow.PlanNode, rec *telemetry.Recorder, prefix string, wall bool) map[string]*ProfileNode {
	counters := make(map[string]int64)
	for _, c := range rec.Metrics.Snapshot(true).Counters {
		counters[c.Name] = c.Value
	}
	nodes := make(map[string]*ProfileNode, len(plan))
	for _, pn := range plan {
		node := prefix + "node." + pn.Name + "."
		n := &ProfileNode{
			Name:       pn.Name,
			Kind:       pn.Kind,
			Workers:    pn.Parallelism,
			InTuples:   counters[node+"in_tuples"],
			OutTuples:  counters[node+"out_tuples"],
			Batches:    counters[node+"batches"],
			LineageHit: counters[node+"lineage_hit"] > 0,
		}
		edgePrefix := prefix + "edge." + pn.Name + "->"
		for name, v := range counters {
			if strings.HasPrefix(name, edgePrefix) && strings.HasSuffix(name, ".bytes") {
				n.OutBytes += v
			}
		}
		nodes[pn.Name] = n
	}
	if wall {
		for _, sp := range rec.Spans() {
			if sp.Cat == "wall" && sp.HasWall {
				if n, ok := nodes[sp.Track]; ok {
					n.WallBusyMS += float64(sp.Clock.DurNS) / 1e6
				}
			}
		}
	}
	return nodes
}

// interval is one closed-open span [start, end) on the virtual clock.
type interval struct{ start, end float64 }

// attributeSelfTime distributes the virtual makespan exclusively over
// the plan's tracks with a line sweep: every elementary interval
// between consecutive span boundaries is split evenly among the
// tracks active in it; intervals where nothing is active accrue to
// WaitVirt, and the controller track accrues to ControllerVirt. By
// construction Σ self + controller + wait equals the last span finish,
// and the remainder up to the run's makespan (if any) is wait — so
// the profile's totals reconcile with the paper's time metric exactly.
func attributeSelfTime(p *Profile, nodes map[string]*ProfileNode, spans []telemetry.Span, proc string) {
	perTrack := make(map[string][]interval)
	for _, sp := range spans {
		if sp.Proc != proc || !sp.HasVirt || sp.Virtual.Dur <= 0 {
			continue
		}
		iv := interval{sp.Virtual.Start, sp.Virtual.Start + sp.Virtual.Dur}
		perTrack[sp.Track] = append(perTrack[sp.Track], iv)
	}

	tracks := make([]string, 0, len(perTrack))
	for t := range perTrack {
		tracks = append(tracks, t)
	}
	sort.Strings(tracks)

	var bounds []float64
	unions := make([][]interval, len(tracks))
	for i, t := range tracks {
		ivs := perTrack[t]
		sort.Slice(ivs, func(a, b int) bool {
			if ivs[a].start != ivs[b].start {
				return ivs[a].start < ivs[b].start
			}
			return ivs[a].end < ivs[b].end
		})
		// Per-node accounting from the raw spans: total worker-seconds
		// and the node's active window.
		if n, ok := nodes[t]; ok {
			var busy float64
			for _, iv := range ivs {
				busy += iv.end - iv.start
			}
			n.BusyVirt = busy
			n.WindowVirt = ivs[len(ivs)-1].end - ivs[0].start
			// Window is computed before union-merge below, but the merge
			// keeps endpoints, so recompute after merge would be equal.
		}
		// Merge into a disjoint union for the sweep.
		var u []interval
		for _, iv := range ivs {
			if len(u) > 0 && iv.start <= u[len(u)-1].end {
				if iv.end > u[len(u)-1].end {
					u[len(u)-1].end = iv.end
				}
				continue
			}
			u = append(u, iv)
		}
		unions[i] = u
		for _, iv := range u {
			bounds = append(bounds, iv.start, iv.end)
		}
	}
	sort.Float64s(bounds)

	// Deduplicate boundary values.
	elem := bounds[:0]
	for _, b := range bounds {
		if len(elem) == 0 || b != elem[len(elem)-1] {
			elem = append(elem, b)
		}
	}

	cursors := make([]int, len(tracks))
	var lastEnd float64
	for k := 0; k+1 < len(elem); k++ {
		lo, hi := elem[k], elem[k+1]
		dt := hi - lo
		if dt <= 0 {
			continue
		}
		var active []int
		for i := range tracks {
			u := unions[i]
			for cursors[i] < len(u) && u[cursors[i]].end <= lo {
				cursors[i]++
			}
			if cursors[i] < len(u) && u[cursors[i]].start <= lo {
				active = append(active, i)
			}
		}
		if len(active) == 0 {
			p.WaitVirt += dt
			continue
		}
		share := dt / float64(len(active))
		for _, i := range active {
			switch t := tracks[i]; {
			case t == "controller":
				p.ControllerVirt += share
			default:
				if n, ok := nodes[t]; ok {
					n.SelfVirt += share
				} else {
					// Spans on tracks outside the plan (recovery lanes)
					// still have to land somewhere for the total to hold.
					p.ControllerVirt += share
				}
			}
		}
		lastEnd = hi
	}
	if len(elem) > 0 && elem[0] > 0 {
		p.WaitVirt += elem[0] // schedule lead-in before the first span
	}
	if p.Makespan > lastEnd {
		p.WaitVirt += p.Makespan - lastEnd
	}
	// Queue-wait estimate per node, now that busy and window are known.
	for _, n := range nodes {
		if n.Workers > 0 {
			w := n.WindowVirt - n.BusyVirt/float64(n.Workers)
			if w > 0 {
				n.QueueWait = w
			}
		}
	}
}

// buildTree links the per-node profiles into the EXPLAIN forest:
// sinks are roots, inputs are children, and a node reached twice (a
// shared subtree in the DAG) is expanded once and marked Ref at later
// positions.
func buildTree(plan []dataflow.PlanNode, nodes map[string]*ProfileNode) []*ProfileNode {
	byName := make(map[string]dataflow.PlanNode, len(plan))
	consumed := make(map[string]bool)
	for _, pn := range plan {
		byName[pn.Name] = pn
		for _, in := range pn.Inputs {
			consumed[in.From] = true
		}
	}
	expanded := make(map[string]bool)
	var expand func(name string) *ProfileNode
	expand = func(name string) *ProfileNode {
		n := nodes[name]
		if n == nil {
			return nil
		}
		if expanded[name] {
			// Shallow reference copy: same measurements, no children.
			ref := *n
			ref.Ref = true
			ref.Inputs = nil
			return &ref
		}
		expanded[name] = true
		for _, in := range byName[name].Inputs {
			if child := expand(in.From); child != nil {
				n.Inputs = append(n.Inputs, child)
			}
		}
		return n
	}
	var roots []*ProfileNode
	for _, pn := range plan { // plan is in ID order: deterministic
		if !consumed[pn.Name] {
			if r := expand(pn.Name); r != nil {
				roots = append(roots, r)
			}
		}
	}
	return roots
}
