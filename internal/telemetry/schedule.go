package telemetry

import "repro/internal/sim"

// Both engines turn a sim schedule into telemetry here, so the two
// paradigms' traces are drawn by one rule and differ only in how each
// names its lanes.

// JobName is how RecordSchedule names a job's span: by a name
// (Named), or as a data batch (BatchName), whose name is formatted only
// when the trace is read.
type JobName struct {
	batch     bool
	port, seq int
	name      string
}

// Named is the JobName of a job whose span is called name.
func Named(name string) JobName { return JobName{name: name} }

// BatchName names the span of batch seq of input port, or of a
// source's generated batch seq when port is negative (see BatchLabel).
func BatchName(port, seq int) JobName { return JobName{batch: true, port: port, seq: seq} }

// RecordSchedule records one virtual-clock span per job of g that
// consumed time, in job order, from sched (scheduled with its spans),
// then one "recovery" span per killed attempt, in kill order, named
// "<job>:killed#<attempt>" and covering the time the attempt held its
// slot. lane gives the lane and name of
// the job at position i; it is called only for jobs that get a span,
// under the recorder's lock, so it must not call the recorder. A
// killed attempt takes its job's track on a "recovery" lane.
func (r *Recorder) RecordSchedule(g sim.Graph, sched *sim.Result, lane func(i int) (Lane, JobName)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.recs.Grow(g.Len() + len(sched.Aborts))
	for k := range g.NumGroups() {
		gr := g.Group(k)
		if gr.Cost <= 0 {
			continue // barrier and end-of-stream bookkeeping jobs
		}
		for i := int(gr.First); i < int(gr.First)+int(gr.Count); i++ {
			l, n := lane(i)
			sp := sched.Spans[i]
			r.recs.Append(r.jobRec(l, n, Virt{Start: sp.Start, Dur: sp.Finish - sp.Start}))
		}
	}
	for _, ab := range sched.Aborts {
		l, n := lane(int(ab.Job))
		k := r.lanes[l]
		k.cat = "recovery"
		rec := r.jobRec(r.lane(k), n, Virt{Start: ab.Start, Dur: ab.Killed - ab.Start})
		rec.flags |= flagKilled
		rec.attempt = int32(ab.Attempt)
		r.recs.Append(rec)
	}
}

// jobRec is the virtual span of a job named n on lane l; r.mu is held.
func (r *Recorder) jobRec(l Lane, n JobName, v Virt) spanRec {
	rec := spanRec{virt: v, lane: l, flags: flagVirt}
	if n.batch {
		rec.kind, rec.port, rec.seq = nameBatch, int16(n.port), int32(n.seq)
	} else {
		rec.name = r.name(n.name)
	}
	return rec
}

// CriticalRows attributes the critical chain of g's jobs
// (sim.Graph.CriticalChain) to tracks: one row per track, in the order the chain first reaches
// it, each summing its jobs' cost and latency in chain order. track
// names the track of the job at position i. It returns nil when the
// chain cannot be computed.
func CriticalRows(proc string, g sim.Graph, track func(i int) string) []CriticalRow {
	chain, err := g.CriticalChain()
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
		gr := g.Group(g.GroupOf(id))
		rows[k].Seconds += gr.Cost + gr.Latency
	}
	return rows
}
