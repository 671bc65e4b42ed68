package sim

import (
	"math"
	"testing"
)

func twoPoolJobs() ([]Job, []Pool) {
	jobs := []Job{
		{Cost: 2, Pool: 0},
		{Cost: 3, Pool: 0, Deps: []JobID{0}},
		{Cost: 1, Pool: 0, Deps: []JobID{0}},
		{Cost: 2, Pool: 1, Deps: []JobID{1, 2}},
	}
	pools := []Pool{{Name: "p", Slots: 2}, {Name: "q", Slots: 1}}
	return jobs, pools
}

func TestScheduleFaultyNoFaultsMatchesSchedule(t *testing.T) {
	jobs, pools := twoPoolJobs()
	clean, err := Schedule(jobs, pools)
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := ScheduleFaulty(jobs, pools, nil, RetryPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if clean.Makespan != faulty.Makespan {
		t.Fatalf("makespans differ: %v vs %v", clean.Makespan, faulty.Makespan)
	}
	for i, sp := range clean.Spans {
		if faulty.Spans[i] != sp {
			t.Fatalf("span %d differs: %+v vs %+v", i, sp, faulty.Spans[i])
		}
	}
	if faulty.Recovery != (Recovery{}) || len(faulty.Aborts) != 0 {
		t.Fatalf("no-fault run reported recovery %+v, %d aborts", faulty.Recovery, len(faulty.Aborts))
	}
}

func TestFaultKillsAndRetries(t *testing.T) {
	jobs := []Job{{Cost: 10}}
	pools := []Pool{{Name: "p", Slots: 1}}
	res, err := ScheduleFaulty(jobs, pools, []FaultEvent{{At: 4, Pool: 0}}, RetryPolicy{
		Delay: func(JobID, int) float64 { return 1 },
	})
	if err != nil {
		t.Fatal(err)
	}
	// Killed at t=4, retried at t=5, finishes at t=15.
	if res.Makespan != 15 {
		t.Fatalf("makespan = %v, want 15", res.Makespan)
	}
	if res.Recovery.Kills != 1 || res.Recovery.LostSeconds != 4 || res.Recovery.DelaySeconds != 1 {
		t.Fatalf("recovery = %+v", res.Recovery)
	}
	if len(res.Aborts) != 1 || res.Aborts[0] != (Abort{Job: 0, Attempt: 1, Start: 0, Killed: 4}) {
		t.Fatalf("aborts = %+v", res.Aborts)
	}
	// The final span is the successful attempt.
	if sp := res.Spans[0]; sp.Start != 5 || sp.Finish != 15 {
		t.Fatalf("span = %+v, want [5, 15]", sp)
	}
	// Busy time counts the wasted partial attempt (4s) plus the full
	// re-execution (10s).
	if got := res.BusyTime[0]; math.Abs(got-14) > 1e-12 {
		t.Fatalf("busy time = %v, want 14", got)
	}
}

func TestFaultExtraCostAndObjectLoss(t *testing.T) {
	jobs := []Job{{Cost: 5}}
	pools := []Pool{{Name: "p", Slots: 1}}
	res, err := ScheduleFaulty(jobs, pools,
		[]FaultEvent{{At: 2, Pool: AnyPool, LoseObjects: true}},
		RetryPolicy{ExtraCost: func(_ JobID, _ int, lost bool) float64 {
			if lost {
				return 3
			}
			return 0
		}})
	if err != nil {
		t.Fatal(err)
	}
	// Killed at 2, restarted immediately with 3s reconstruction: 2+3+5.
	if res.Makespan != 10 {
		t.Fatalf("makespan = %v, want 10", res.Makespan)
	}
	if res.Recovery.NodeKills != 1 || res.Recovery.ExtraCostSeconds != 3 {
		t.Fatalf("recovery = %+v", res.Recovery)
	}
	if !res.Aborts[0].LostObjects {
		t.Fatalf("abort not marked as object loss: %+v", res.Aborts[0])
	}
}

func TestFaultOnIdleSystemIsNoOp(t *testing.T) {
	jobs := []Job{{Cost: 2}}
	pools := []Pool{{Name: "p", Slots: 1}}
	res, err := ScheduleFaulty(jobs, pools, []FaultEvent{{At: 100, Pool: AnyPool}, {At: 1, Pool: 1}}, RetryPolicy{})
	if err == nil {
		// Pool 1 doesn't exist, so the second fault matches nothing; the
		// first strikes after completion.
		if res.Makespan != 2 || res.Recovery.Kills != 0 {
			t.Fatalf("idle faults changed the schedule: %+v", res)
		}
		return
	}
	t.Fatalf("unexpected error: %v", err)
}

func TestFaultDeterministicVictimSelection(t *testing.T) {
	jobs, pools := twoPoolJobs()
	faults := []FaultEvent{{At: 0.5, Pool: AnyPool, Salt: 12345}, {At: 2.5, Pool: AnyPool, Salt: 999}}
	a, err := ScheduleFaulty(jobs, pools, faults, RetryPolicy{Delay: func(_ JobID, r int) float64 { return 0.25 * float64(r) }})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ScheduleFaulty(jobs, pools, faults, RetryPolicy{Delay: func(_ JobID, r int) float64 { return 0.25 * float64(r) }})
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan || a.Recovery != b.Recovery || len(a.Aborts) != len(b.Aborts) {
		t.Fatalf("fault runs differ: %+v vs %+v", a.Recovery, b.Recovery)
	}
	for i := range a.Aborts {
		if a.Aborts[i] != b.Aborts[i] {
			t.Fatalf("abort %d differs: %+v vs %+v", i, a.Aborts[i], b.Aborts[i])
		}
	}
	if a.Recovery.Kills != 2 {
		t.Fatalf("expected both faults to kill, got %+v", a.Recovery)
	}
}

func TestFaultDependentsWaitForFinalAttempt(t *testing.T) {
	jobs := []Job{
		{Cost: 4},
		{Cost: 1, Deps: []JobID{0}},
	}
	pools := []Pool{{Name: "p", Slots: 2}}
	res, err := ScheduleFaulty(jobs, pools, []FaultEvent{{At: 3, Pool: AnyPool}}, RetryPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	// Job 0 killed at 3, reruns [3, 7]; job 1 must start at 7, not at
	// the killed attempt's original finish time (4).
	if sp := res.Spans[1]; sp.Start != 7 || sp.Finish != 8 {
		t.Fatalf("dependent span = %+v, want [7, 8]", sp)
	}
	if res.Makespan != 8 {
		t.Fatalf("makespan = %v, want 8", res.Makespan)
	}
}

func TestFaultExceedingRetriesErrors(t *testing.T) {
	jobs := []Job{{Cost: 100}}
	pools := []Pool{{Name: "p", Slots: 1}}
	faults := []FaultEvent{{At: 1, Pool: AnyPool}, {At: 2, Pool: AnyPool}, {At: 3, Pool: AnyPool}}
	_, err := ScheduleFaulty(jobs, pools, faults, RetryPolicy{MaxRetries: 2})
	if err == nil {
		t.Fatalf("expected retry-exhaustion error")
	}
}

func TestFaultNegativeTimeRejected(t *testing.T) {
	jobs := []Job{{Cost: 1}}
	pools := []Pool{{Name: "p", Slots: 1}}
	if _, err := ScheduleFaulty(jobs, pools, []FaultEvent{{At: -1, Pool: AnyPool}}, RetryPolicy{}); err == nil {
		t.Fatalf("expected error for negative fault time")
	}
}
