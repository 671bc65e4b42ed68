package dataflow

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"repro/internal/cost"
	"repro/internal/sim"
)

// OpSpan is the simulated execution interval of one node: from its
// first job starting to its last job finishing.
type OpSpan struct {
	Name   string
	Start  float64
	Finish float64
}

// Timeline lowers a trace, schedules it, and aggregates the simulated
// execution interval of every node — the data behind a Gantt view of
// the workflow, which makes pipelining overlap visible.
func Timeline(tr *Trace, m *cost.Model) ([]OpSpan, error) {
	jobs, pools, err := Lower(tr, m)
	if err != nil {
		return nil, err
	}
	sched, err := sim.Schedule(jobs, pools)
	if err != nil {
		return nil, err
	}
	// Pool names encode the node: "n<ID>:<name>".
	type agg struct {
		start, finish float64
		seen          bool
	}
	byPool := make([]agg, len(pools))
	for i, span := range sched.Spans {
		a := &byPool[jobs[i].Pool]
		if !a.seen || span.Start < a.start {
			a.start = span.Start
		}
		if !a.seen || span.Finish > a.finish {
			a.finish = span.Finish
		}
		a.seen = true
	}
	var out []OpSpan
	for p, a := range byPool {
		if !a.seen {
			continue
		}
		display := pools[p].Name
		if i := strings.Index(display, ":"); i >= 0 {
			display = display[i+1:]
		}
		out = append(out, OpSpan{Name: display, Start: a.start, Finish: a.finish})
	}
	slices.SortStableFunc(out, func(a, b OpSpan) int {
		return cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(a.Name, b.Name))
	})
	return out, nil
}

// RenderTimeline draws the spans as an ASCII Gantt chart.
func RenderTimeline(spans []OpSpan, width int) string {
	if len(spans) == 0 {
		return "(empty timeline)\n"
	}
	if width < 20 {
		width = 20
	}
	var maxT float64
	maxName := 0
	for _, s := range spans {
		if s.Finish > maxT {
			maxT = s.Finish
		}
		if len(s.Name) > maxName {
			maxName = len(s.Name)
		}
	}
	if maxT <= 0 {
		maxT = 1
	}
	var b strings.Builder
	for _, s := range spans {
		from := int(s.Start / maxT * float64(width))
		to := int(s.Finish / maxT * float64(width))
		if to <= from {
			to = from + 1
		}
		if to > width {
			to = width
		}
		bar := strings.Repeat(" ", from) + strings.Repeat("█", to-from) + strings.Repeat(" ", width-to)
		fmt.Fprintf(&b, "%-*s |%s| %7.2f .. %7.2f s\n", maxName, s.Name, bar, s.Start, s.Finish)
	}
	return b.String()
}
