package telemetry

import (
	"testing"

	"repro/internal/sim"
)

func TestRecordScheduleSkipsFreeJobsAndNamesKills(t *testing.T) {
	jobs := []sim.Job{
		{Cost: 10},
		{Deps: []sim.JobID{0}},
		{Cost: 1, Deps: []sim.JobID{1}},
	}
	names := []string{"a", "barrier", "b"}
	pools := []sim.Pool{{Name: "p", Slots: 1}}
	sched, err := sim.ScheduleFaulty(jobs, pools, []sim.FaultEvent{{At: 4, Pool: sim.AnyPool}, {At: 6, Pool: sim.AnyPool}}, sim.RetryPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	rec := New()
	rec.Record(Span{Name: "kept"})
	lane := rec.Lane("script:x", "lane", "task")
	rec.RecordSchedule(jobs, sched, func(i int) (Lane, JobName) { return lane, Named(names[i]) })
	spans := rec.Spans()
	want := []struct {
		name, cat  string
		start, dur float64
	}{
		{"kept", "", 0, 0},
		{"a", "task", 6, 10},
		{"b", "task", 16, 1},
		{"a:killed#1", "recovery", 0, 4},
		{"a:killed#2", "recovery", 4, 2},
	}
	if len(spans) != len(want) {
		t.Fatalf("%d spans, want %d: %+v", len(spans), len(want), spans)
	}
	for i, w := range want[1:] {
		sp := spans[i+1]
		if sp.Name != w.name || sp.Cat != w.cat || sp.Proc != "script:x" || sp.Track != "lane" || !sp.HasVirt ||
			sp.Virtual != (Virt{Start: w.start, Dur: w.dur}) {
			t.Errorf("span %d = %+v, want %s/%s at %g for %g", i+1, sp, w.name, w.cat, w.start, w.dur)
		}
	}
}

func TestCriticalRowsFirstReachedOrder(t *testing.T) {
	// One chain a -> b -> c -> d over tracks x, y, x, z: x is reached
	// first, and its second job joins its row instead of opening a new
	// one.
	jobs := []sim.Job{
		{Cost: 1, Pool: 0},
		{Cost: 2, Pool: 1, Deps: []sim.JobID{0}},
		{Cost: 3, Pool: 0, Deps: []sim.JobID{1}, Latency: 0.5},
		{Cost: 4, Pool: 2, Deps: []sim.JobID{2}},
	}
	tracks := []string{"x", "y", "z"}
	rows := CriticalRows("workflow:x", jobs, func(i int) string { return tracks[jobs[i].Pool] })
	want := []CriticalRow{
		{Proc: "workflow:x", Track: "x", Jobs: 2, Seconds: 4.5},
		{Proc: "workflow:x", Track: "y", Jobs: 1, Seconds: 2},
		{Proc: "workflow:x", Track: "z", Jobs: 1, Seconds: 4},
	}
	if len(rows) != len(want) {
		t.Fatalf("rows = %+v", rows)
	}
	for i := range want {
		if rows[i] != want[i] {
			t.Errorf("row %d = %+v, want %+v", i, rows[i], want[i])
		}
	}
}
