package faults

import (
	"math"
	"testing"

	"repro/internal/sim"
)

func TestZeroPlanIsDisabled(t *testing.T) {
	var p Plan
	if p.Enabled() || p.Injecting() {
		t.Fatalf("zero plan must be disabled: enabled=%v injecting=%v", p.Enabled(), p.Injecting())
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("zero plan must validate: %v", err)
	}
	if evs := p.Events(1000); evs != nil {
		t.Fatalf("zero plan produced %d events", len(evs))
	}
}

func TestEventsDeterministic(t *testing.T) {
	p := Plan{Seed: 42, Rate: 5, NodeFraction: 0.3}
	a, b := p.Events(500), p.Events(500)
	if len(a) == 0 {
		t.Fatalf("expected events over a 500s horizon at rate 5/100s")
	}
	if len(a) != len(b) {
		t.Fatalf("event counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	// A different seed must give a different stream.
	c := Plan{Seed: 43, Rate: 5, NodeFraction: 0.3}.Events(500)
	if len(c) == len(a) {
		same := true
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatalf("seeds 42 and 43 produced identical event streams")
		}
	}
}

func TestEventsRespectHorizonAndCap(t *testing.T) {
	p := Plan{Seed: 7, Rate: 20}
	for _, e := range p.Events(100) {
		if e.At < 0 || e.At >= 100 {
			t.Fatalf("event at %g outside [0, 100)", e.At)
		}
	}
	p.MaxFaults = 3
	if got := len(p.Events(1e6)); got != 3 {
		t.Fatalf("MaxFaults=3 produced %d events", got)
	}
}

func TestEventsMatchRateRoughly(t *testing.T) {
	p := Plan{Seed: 11, Rate: 10} // expect ~100 over 1000s
	n := len(p.Events(1000))
	if n < 60 || n > 150 {
		t.Fatalf("rate 10/100s over 1000s gave %d events, want ~100", n)
	}
}

func TestBackoffCapped(t *testing.T) {
	var p Plan // base 0.5, cap 8
	want := []float64{0.5, 1, 2, 4, 8, 8, 8}
	for i, w := range want {
		if got := p.Backoff(i + 1); got != w {
			t.Fatalf("Backoff(%d) = %g, want %g", i+1, got, w)
		}
	}
}

func TestValidateRejectsBadFields(t *testing.T) {
	bad := []Plan{
		{Rate: -1},
		{Rate: math.Inf(1)},
		{NodeFraction: 1.5},
		{NodeFraction: -0.1},
		{MaxFaults: -1},
		{CheckpointEvery: -2},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("plan %d (%+v) validated but should not", i, p)
		}
	}
	if err := (Plan{Seed: 1, Rate: 3, NodeFraction: 0.5, CheckpointEvery: 8}).Validate(); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
}

func scheduleJobs() ([]sim.Job, []sim.Pool) {
	jobs := []sim.Job{
		{Cost: 4, Pool: 0},
		{Cost: 3, Pool: 0, Deps: []sim.JobID{0}},
		{Cost: 2, Pool: 1, Deps: []sim.JobID{0}},
	}
	return jobs, []sim.Pool{{Name: "p", Slots: 1}, {Name: "q", Slots: 1}}
}

func TestZeroPlanScheduleMatchesSim(t *testing.T) {
	jobs, pools := scheduleJobs()
	want, err := sim.Schedule(jobs, pools)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Plan{}.Schedule(jobs, pools, sim.RetryPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Makespan != want.Makespan || len(got.Spans) != len(want.Spans) {
		t.Fatalf("zero plan: makespan %v, %d spans; sim.Schedule: %v, %d", got.Makespan, len(got.Spans), want.Makespan, len(want.Spans))
	}
	for i := range want.Spans {
		if got.Spans[i] != want.Spans[i] {
			t.Fatalf("span %d is %+v, sim.Schedule gives %+v", i, got.Spans[i], want.Spans[i])
		}
	}
}

func TestScheduleEventsPastHorizonKeepCleanSchedule(t *testing.T) {
	jobs, pools := scheduleJobs()
	clean, err := sim.Schedule(jobs, pools)
	if err != nil {
		t.Fatal(err)
	}
	// One fault per 10^6 simulated seconds: the seeded stream's first
	// event lands long after the 7-second makespan.
	p := Plan{Seed: 3, Rate: 1e-4}
	if evs := p.Events(1e3); len(evs) != 0 {
		t.Fatalf("plan strikes inside 1000 s: %+v", evs)
	}
	called := false
	res, err := p.Schedule(jobs, pools, sim.RetryPolicy{
		Delay: func(sim.JobID, int) float64 { called = true; return 0 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if called || res.Recovery != (sim.Recovery{}) || len(res.Aborts) != 0 {
		t.Fatalf("no event landed, yet recovery ran: %+v", res.Recovery)
	}
	if res.Makespan != clean.Makespan {
		t.Fatalf("makespan %v, clean %v", res.Makespan, clean.Makespan)
	}
	for i := range clean.Spans {
		if res.Spans[i] != clean.Spans[i] {
			t.Fatalf("span %d is %+v, clean %+v", i, res.Spans[i], clean.Spans[i])
		}
	}
}

func TestScheduleKillNodeLosesObjects(t *testing.T) {
	jobs := []sim.Job{{Cost: 1000}}
	pools := []sim.Pool{{Name: "p", Slots: 1}}
	p := Plan{Seed: 1, Rate: 5, NodeFraction: 1, MaxFaults: 1}
	if evs := p.Events(1000); len(evs) != 1 || evs[0].Kind != KillNode {
		t.Fatalf("plan should yield one node fault inside the job: %+v", evs)
	}
	var lost []bool
	res, err := p.Schedule(jobs, pools, sim.RetryPolicy{
		ExtraCost: func(_ sim.JobID, _ int, objectsLost bool) float64 {
			lost = append(lost, objectsLost)
			return 0
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(lost) != 1 || !lost[0] {
		t.Fatalf("ExtraCost saw objectsLost %v, want [true]", lost)
	}
	if res.Recovery.NodeKills != 1 || len(res.Aborts) != 1 || !res.Aborts[0].LostObjects {
		t.Fatalf("recovery %+v, aborts %+v", res.Recovery, res.Aborts)
	}
}
