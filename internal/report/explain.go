package report

import (
	"fmt"
	"io"

	"repro/internal/obs"
)

// Explain renders an EXPLAIN-ANALYZE profile as an aligned text tree:
// each sink is a root, children are input producers, and every row
// carries the node's exclusive virtual self-time, its share of the
// makespan, data volume and queue-wait estimate. The output is a pure
// function of the profile, so deterministic profiles render to
// identical bytes — the property the golden test pins.
func Explain(w io.Writer, p *obs.Profile) {
	fmt.Fprintf(w, "EXPLAIN ANALYZE  task=%s  paradigm=%s  workers=%d  seed=%d\n",
		p.Task, p.Paradigm, p.Workers, p.Seed)
	fmt.Fprintf(w, "workflow %q  makespan %.6fs  nodes %d  edges %d\n\n",
		p.Workflow, p.Makespan, p.Totals.Nodes, p.Totals.Edges)

	type row struct {
		label string
		n     *obs.ProfileNode
	}
	var rows []row
	var walk func(n *obs.ProfileNode, prefix string, last bool, depth int)
	walk = func(n *obs.ProfileNode, prefix string, last bool, depth int) {
		label := n.Name
		if depth > 0 {
			branch := "├─ "
			if last {
				branch = "└─ "
			}
			label = prefix + branch + n.Name
		}
		if n.Ref {
			label += " (shown above)"
		}
		rows = append(rows, row{label: label, n: n})
		childPrefix := prefix
		if depth > 0 {
			if last {
				childPrefix += "   "
			} else {
				childPrefix += "│  "
			}
		}
		for i, c := range n.Inputs {
			walk(c, childPrefix, i == len(n.Inputs)-1, depth+1)
		}
	}
	for _, r := range p.Roots {
		walk(r, "", true, 0)
	}

	width := len("operator")
	for _, r := range rows {
		if len(r.label) > width {
			width = len(r.label)
		}
	}
	hasWall := false
	for _, r := range rows {
		if r.n.WallBusyMS > 0 {
			hasWall = true
			break
		}
	}

	fmt.Fprintf(w, "%-*s  %-8s  %3s  %12s  %6s  %10s  %10s  %8s  %10s  %10s",
		width, "operator", "kind", "wkr", "self(s)", "self%", "in", "out", "batches", "bytes", "wait(s)")
	if hasWall {
		fmt.Fprintf(w, "  %10s", "wall(ms)")
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		n := r.n
		if n.Ref {
			// Reference rows repeat no measurements; the subtree above
			// already carries them and double-printing invites
			// double-counting by eye.
			fmt.Fprintf(w, "%-*s  %-8s  %3d\n", width, r.label, n.Kind, n.Workers)
			continue
		}
		pct := 0.0
		if p.Makespan > 0 {
			pct = 100 * n.SelfVirt / p.Makespan
		}
		lin := ""
		if n.LineageHit {
			lin = "  [cache hit]"
		}
		fmt.Fprintf(w, "%-*s  %-8s  %3d  %12.6f  %5.1f%%  %10d  %10d  %8d  %10d  %10.6f",
			width, r.label, n.Kind, n.Workers, n.SelfVirt, pct,
			n.InTuples, n.OutTuples, n.Batches, n.OutBytes, n.QueueWait)
		if hasWall {
			fmt.Fprintf(w, "  %10.3f", n.WallBusyMS)
		}
		fmt.Fprint(w, lin)
		fmt.Fprintln(w)
	}

	var selfSum float64
	seen := make(map[*obs.ProfileNode]bool)
	for _, r := range rows {
		if !r.n.Ref && !seen[r.n] {
			seen[r.n] = true
			selfSum += r.n.SelfVirt
		}
	}
	fmt.Fprintf(w, "\ntotals: operators %.6fs + controller %.6fs + wait %.6fs = %.6fs (makespan %.6fs)\n",
		selfSum, p.ControllerVirt, p.WaitVirt,
		selfSum+p.ControllerVirt+p.WaitVirt, p.Makespan)
	fmt.Fprintf(w, "data: in %d tuples, out %d tuples, %d batches, %d edge bytes\n",
		p.Totals.InTuples, p.Totals.OutTuples, p.Totals.Batches, p.Totals.EdgeBytes)
	k := p.Kernels
	fmt.Fprintf(w, "kernels: project %d, group %d, join %d, encode %d\n",
		k.Project, k.Group, k.Join, k.Encode)
	if p.LineageNodes > 0 {
		fmt.Fprintf(w, "lineage: %d of %d nodes served from cache\n", p.LineageHits, p.LineageNodes)
	}
}
