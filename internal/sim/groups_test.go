package sim

import (
	"slices"
	"testing"

	"repro/internal/xrand"
)

// randomGroups builds a seeded random acyclic group graph of about n
// jobs on 1–3 pools: runs of 1–12 jobs (now and then 40) that wait
// whole on up to two earlier groups and, most of them, on an earlier
// group's jobs min(j, n-1) or its last job. Costs and latencies come
// from a grid half of the time and a tenth are zero, so ties in ready
// and finish times occur constantly.
func randomGroups(seed uint64, n int, latencies bool) ([]Group, []Pool) {
	r := xrand.New(seed)
	pools := make([]Pool, 1+r.Intn(3))
	for i := range pools {
		pools[i] = Pool{Name: string(rune('a' + i)), Slots: 1 + r.Intn(5)}
	}
	grid := []float64{0.25, 0.5, 1}
	var groups []Group
	for jobs := JobID(0); int(jobs) < n; {
		k := len(groups)
		gr := Group{First: jobs, Count: int32(1 + r.Intn(12)), Pool: int32(r.Intn(len(pools))), Up: -1}
		if r.Bool(0.05) {
			gr.Count = 40
		}
		switch {
		case r.Bool(0.1):
		case r.Bool(0.5):
			gr.Cost = xrand.Choice(r, grid)
		default:
			gr.Cost = uniform(r, 0, 3)
		}
		if latencies && r.Bool(0.4) {
			gr.Latency = xrand.Choice(r, grid)
			if r.Bool(0.5) {
				gr.Latency = uniform(r, 0, 1.5)
			}
		}
		for a := 0; a < 2 && k > 0; a++ {
			if r.Bool(0.5) {
				gr.After = append(gr.After, int32(k-1-r.Intn(min(k, 6))))
			}
		}
		if k > 0 && r.Bool(0.7) {
			gr.Up = int32(k - 1 - r.Intn(min(k, 6)))
			if r.Bool(0.2) {
				gr.Count, gr.UpLast = 1+int32(r.Intn(2)), true
			}
		}
		groups = append(groups, gr)
		jobs += JobID(gr.Count)
	}
	return groups, pools
}

// FuzzGroupsMatchPositional holds Graph.Schedule over groups to the
// positional scheduler over the same groups expanded into jobs, with
// and without a fault list and a retry policy: the makespan, every
// span, the busy time of every pool, the aborts and the recovery
// totals must be equal with ==. The same call without spans must
// report the same and keep no spans, and the critical chain of the
// groups must be the positional walk's chain of the expanded jobs.
func FuzzGroupsMatchPositional(f *testing.F) {
	for seed := range uint64(12) {
		f.Add(seed, uint16(50+97*seed), uint8(seed%8))
	}
	f.Fuzz(func(t *testing.T, seed uint64, size uint16, flags uint8) {
		groups, pools := randomGroups(seed, 1+int(size)%1500, flags&1 != 0)
		g := OfGroups(groups)
		jobs := g.Expand()
		if len(jobs) != g.Len() {
			t.Fatalf("%d jobs expanded, graph has %d", len(jobs), g.Len())
		}
		var faults []FaultEvent
		if flags&2 != 0 {
			clean, err := posSchedule(jobs, pools, nil, RetryPolicy{})
			if err != nil {
				t.Fatal(err)
			}
			faults = goldenFaults(seed, len(jobs), clean.Makespan, pools)
		}
		var retry RetryPolicy
		if flags&4 != 0 {
			retry = goldenPolicy
		}
		want, wantErr := posSchedule(jobs, pools, faults, retry)
		got, err := g.Schedule(pools, faults, retry, true)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("error %v, reference %v", err, wantErr)
		}
		if err != nil {
			return
		}
		sameResult(t, got, want)
		if !slices.Equal(got.Spans, want.Spans) {
			t.Fatalf("spans differ from the reference")
		}
		bare, err := g.Schedule(pools, faults, retry, false)
		if err != nil {
			t.Fatal(err)
		}
		if bare.Spans != nil {
			t.Errorf("%d spans kept without being asked for", len(bare.Spans))
		}
		sameResult(t, bare, want)

		chain, err := g.CriticalChain()
		wantChain, wantLen, wantErr := posLongestChain(jobs)
		if err != nil || wantErr != nil || !slices.Equal(chain, wantChain) {
			t.Fatalf("critical chain %v (%v), reference %v (%v)", chain, err, wantChain, wantErr)
		}
		if _, length, _ := longestChain(g); length != wantLen {
			t.Errorf("critical path %v, reference %v", length, wantLen)
		}
	})
}

// FuzzScheduleMatchesPositional holds Schedule and ScheduleFaulty over
// an explicit job list, which the event loop reads as one-job groups,
// to the positional scheduler on goldenDAG's seeded DAGs, and
// CriticalChain to the positional walk.
func FuzzScheduleMatchesPositional(f *testing.F) {
	for _, c := range goldenCases {
		f.Add(c.seed, uint16(c.jobs), c.latencies, c.faults)
	}
	f.Fuzz(func(t *testing.T, seed uint64, size uint16, latencies, withFaults bool) {
		ref, pools := goldenDAG(seed, 1+int(size)%1000, false, latencies)
		jobs, _, _ := positional(ref, pools)
		var faults []FaultEvent
		if withFaults {
			clean, err := posSchedule(jobs, pools, nil, RetryPolicy{})
			if err != nil {
				t.Fatal(err)
			}
			faults = goldenFaults(seed, len(jobs), clean.Makespan, pools)
		}
		want, wantErr := posSchedule(jobs, pools, faults, goldenPolicy)
		got, err := ScheduleFaulty(jobs, pools, faults, goldenPolicy)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("error %v, reference %v", err, wantErr)
		}
		if err != nil {
			return
		}
		sameResult(t, got, want)
		if !slices.Equal(got.Spans, want.Spans) {
			t.Fatalf("spans differ from the reference")
		}
		chain, err := CriticalChain(jobs)
		wantChain, _, wantErr := posLongestChain(jobs)
		if err != nil || wantErr != nil || !slices.Equal(chain, wantChain) {
			t.Fatalf("critical chain %v (%v), reference %v (%v)", chain, err, wantChain, wantErr)
		}
	})
}

// sameResult fails t unless got reports want's makespan, busy times,
// recovery and aborts bit for bit.
func sameResult(t *testing.T, got, want *Result) {
	t.Helper()
	if got.Makespan != want.Makespan {
		t.Errorf("makespan %v, reference %v", got.Makespan, want.Makespan)
	}
	if !slices.Equal(got.BusyTime, want.BusyTime) {
		t.Errorf("busy time %v, reference %v", got.BusyTime, want.BusyTime)
	}
	if got.Recovery != want.Recovery {
		t.Errorf("recovery %+v, reference %+v", got.Recovery, want.Recovery)
	}
	if !slices.Equal(got.Aborts, want.Aborts) {
		t.Errorf("aborts %+v, reference %+v", got.Aborts, want.Aborts)
	}
}

// TestGroupsRejectMalformed checks what a group graph must hold before
// it is scheduled: its jobs numbered in group order, at least one job
// per group, known pools and groups, no negative cost or latency.
func TestGroupsRejectMalformed(t *testing.T) {
	pools := onePool(1)
	ok := Group{First: 0, Count: 2, Up: -1, Cost: 1}
	for name, groups := range map[string][]Group{
		"gap":          {ok, {First: 3, Count: 1, Up: -1}},
		"empty":        {ok, {First: 2, Count: 0, Up: -1}},
		"negative":     {{First: 0, Count: 1, Up: -1, Cost: -1}},
		"latency":      {{First: 0, Count: 1, Up: -1, Latency: -1}},
		"pool":         {{First: 0, Count: 1, Up: -1, Pool: 1}},
		"after":        {ok, {First: 2, Count: 1, Up: -1, After: []int32{5}}},
		"up":           {ok, {First: 2, Count: 1, Up: 2}},
		"up last only": {ok, {First: 2, Count: 1, Up: -1, UpLast: true}},
	} {
		if _, err := OfGroups(groups).Schedule(pools, nil, RetryPolicy{}, false); err == nil {
			t.Errorf("%s: scheduled", name)
		}
	}
	cycle := []Group{{First: 0, Count: 1, Up: 1}, {First: 1, Count: 2, Up: 0}}
	if _, err := OfGroups(cycle).Schedule(pools, nil, RetryPolicy{}, false); err == nil {
		t.Error("a cycle of groups scheduled")
	}
	if _, err := OfGroups(cycle).CriticalChain(); err == nil {
		t.Error("a cycle of groups has a critical chain")
	}
}
