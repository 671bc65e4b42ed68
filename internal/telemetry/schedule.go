package telemetry

import (
	"fmt"

	"repro/internal/sim"
)

// Both engines turn a sim schedule into telemetry here, so the two
// paradigms' traces are drawn by one rule and differ only in how each
// names its lanes.

// ScheduleSpans appends to dst one virtual-clock span per job of sched
// that consumed time, in job order, then one "recovery" span per killed
// attempt, in kill order, named "<job>:killed#<attempt>" and covering
// the time the attempt held its slot. lane gives the track, category
// and span name of the job at position i; it is called only for jobs
// that get a span. An abort's job ID is read as its position in jobs:
// both lowerings (dataflow.Lower and raysim's Run) number their jobs
// 0..n-1.
func ScheduleSpans(dst []Span, proc string, jobs []sim.Job, sched *sim.Result, lane func(i int) (track, cat, name string)) []Span {
	for i := range jobs {
		if jobs[i].Cost <= 0 {
			continue // barrier and end-of-stream bookkeeping jobs
		}
		track, cat, name := lane(i)
		sp := sched.Spans[i]
		dst = append(dst, Span{
			Proc: proc, Track: track, Name: name, Cat: cat,
			HasVirt: true,
			Virtual: Virt{Start: sp.Start, Dur: sp.Finish - sp.Start},
		})
	}
	for _, ab := range sched.Aborts {
		track, _, name := lane(int(ab.Job))
		dst = append(dst, Span{
			Proc: proc, Track: track,
			Name:    fmt.Sprintf("%s:killed#%d", name, ab.Attempt),
			Cat:     "recovery",
			HasVirt: true,
			Virtual: Virt{Start: ab.Start, Dur: ab.Killed - ab.Start},
		})
	}
	return dst
}

// CriticalRows attributes the jobs' critical chain (sim.CriticalChain)
// to tracks: one row per track, in the order the chain first reaches
// it, each summing its jobs' cost and latency in chain order. track
// names the track of the job at position i. It indexes jobs by the
// chain's job IDs: both lowerings (dataflow.Lower and raysim's Run)
// number their jobs 0..n-1. It returns nil when the chain cannot be
// computed.
func CriticalRows(proc string, jobs []sim.Job, track func(i int) string) []CriticalRow {
	chain, err := sim.CriticalChain(jobs)
	if err != nil {
		return nil
	}
	var rows []CriticalRow
	for _, id := range chain {
		t := track(int(id))
		k := 0
		for k < len(rows) && rows[k].Track != t {
			k++
		}
		if k == len(rows) {
			rows = append(rows, CriticalRow{Proc: proc, Track: t})
		}
		rows[k].Jobs++
		rows[k].Seconds += jobs[id].Cost + jobs[id].Latency
	}
	return rows
}
